"""Vertex-induced matching semantics.

The paper (§V-A) notes: *"Since the definition of pattern matching in
AutoMine and GraphZero is different from other systems, we made some
minor modifications in the reproduced version to make its results
consistent with those of other systems."*  The difference is matching
semantics:

* **edge-induced** (GraphPi, Fractal, Peregrine default): an embedding
  must contain every pattern edge — extra edges between matched data
  vertices are allowed.  Everything else in this repository uses this
  semantics.
* **vertex-induced** (AutoMine/GraphZero): the subgraph induced by the
  matched vertices must equal the pattern exactly — pattern *non-edges*
  must be non-edges in the data graph too.

This module implements vertex-induced matching both ways and
cross-checks them:

1. :class:`InducedEngine` — the nested-loop engine with anti-edge
   filtering: the candidate set of each loop additionally *excludes* the
   neighbourhoods of bound vertices that are non-adjacent in the pattern.
   All GraphPi machinery (Algorithm 1 restrictions, 2-phase schedules,
   the performance model) applies unchanged, because automorphisms of a
   pattern preserve non-edges exactly as they preserve edges.
2. :func:`induced_count_via_moebius` — the classic linear-algebra route:
   the edge-induced counts of a pattern and all of its same-order
   supergraphs determine the vertex-induced count through a triangular
   Möbius inversion over the supergraph lattice.

The conversion matrix (:func:`supergraph_decomposition`) is also the
standard tool for converting a motif census between the two semantics —
:mod:`repro.mining.motifs` uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.config import Configuration, ExecutionPlan
from repro.core.engine import Engine
from repro.graph.csr import Graph
from repro.graph.intersection import contains, difference
from repro.pattern.automorphism import automorphism_count
from repro.pattern.isomorphism import canonical_form, find_isomorphism
from repro.pattern.pattern import Pattern


class InducedEngine(Engine):
    """Nested-loop engine enforcing vertex-induced semantics.

    The candidate set of the vertex scheduled at depth ``d`` becomes::

        (∩_{j ∈ deps[d]} N(v_j))  \\  (∪_{j ∈ antideps[d]} N(v_j))

    where ``antideps[d]`` are the earlier depths whose pattern vertices
    are *not* adjacent to the one scheduled at ``d``.  Restriction
    range-slicing still applies (automorphisms preserve non-adjacency,
    so Algorithm 1's restriction sets break induced automorphisms too).

    IEP is not supported: Inclusion–Exclusion counts tuples drawn from
    *independent* candidate sets, but induced semantics makes the inner
    vertices interact through their anti-edges (any two unconnected
    pattern vertices must also be unconnected in the data graph), so
    plans must be compiled with ``iep_k=0``.
    """

    def __init__(self, graph: Graph, plan: ExecutionPlan):
        if plan.iep_k:
            raise ValueError("induced matching requires a plan compiled with iep_k=0")
        super().__init__(graph, plan)
        pattern = plan.config.pattern
        schedule = plan.config.schedule
        anti: list[tuple[int, ...]] = []
        for d, v in enumerate(schedule):
            anti.append(
                tuple(
                    j for j in range(d) if not pattern.has_edge(v, schedule[j])
                )
            )
        self._antideps = tuple(anti)

    def candidates(self, depth: int, assigned: Sequence[int]) -> np.ndarray:
        cand = super().candidates(depth, assigned)
        for j in self._antideps[depth]:
            if len(cand) == 0:
                break
            cand = difference(cand, self.graph.neighbors(assigned[j]))
        return cand


def induced_count_engine(graph: Graph, config: Configuration, *, backend=None) -> int:
    """Vertex-induced embedding count under one configuration.

    Dispatches through the execution-backend registry: with no
    preference the vectorised frontier engine applies the anti-edge
    masks in bulk, and ``backend="parallel"`` runs the interpreter
    engine under prefix tasks.
    """
    from repro.core.backend import MatchContext, select_backend

    plan = config.compile(iep_k=0)
    ctx = MatchContext(graph=graph, plan=plan, mode="induced")
    return select_backend(ctx, backend).count(ctx)


def induced_enumerate(
    graph: Graph, config: Configuration, limit: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield vertex-induced embeddings (tuples indexed by pattern vertex)."""
    plan = config.compile(iep_k=0)
    return InducedEngine(graph, plan).enumerate_embeddings(limit=limit)


# ---------------------------------------------------------------------------
# the supergraph lattice and Möbius inversion
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SupergraphTerm:
    """One isomorphism class in the decomposition of a pattern's
    edge-induced count into vertex-induced counts.

    ``coefficient`` is the (integral) multiplier ``m(P, Q)`` in::

        noninduced(P) = Σ_Q  m(P, Q) · induced(Q)

    derived from counting labeled edge-supersets: with ``a`` the number
    of edge subsets ``S ⊆ antiedges(P)`` for which ``P ∪ S ≅ Q``,
    ``m(P, Q) = a · |Aut(Q)| / |Aut(P)|``.
    """

    pattern: Pattern
    coefficient: int

    @property
    def is_identity(self) -> bool:
        return self.coefficient == 1 and self.pattern.n_edges == 0


def supergraph_decomposition(pattern: Pattern) -> list[SupergraphTerm]:
    """All same-order supergraph classes of ``pattern`` with multipliers.

    The first term is always ``pattern`` itself with coefficient 1;
    subsequent terms are proper supergraphs in increasing edge count.
    Exponential in the number of anti-edges — patterns of paper size
    (≤ 7 vertices, ≥ spanning-connected) stay tiny.
    """
    n = pattern.n_vertices
    anti_edges = [
        (u, v)
        for u, v in combinations(range(n), 2)
        if not pattern.has_edge(u, v)
    ]
    base_edges = pattern.edges
    # Group labeled supergraphs by isomorphism class.
    by_class: dict[tuple[int, int], tuple[Pattern, int]] = {}
    for r in range(len(anti_edges) + 1):
        for extra in combinations(anti_edges, r):
            sup = Pattern(n, base_edges + list(extra))
            key = canonical_form(sup)
            if key in by_class:
                rep, cnt = by_class[key]
                by_class[key] = (rep, cnt + 1)
            else:
                by_class[key] = (sup, 1)
    aut_p = automorphism_count(pattern)
    terms = []
    for rep, labeled_count in by_class.values():
        num = labeled_count * automorphism_count(rep)
        q, rem = divmod(num, aut_p)
        if rem:
            raise AssertionError(
                "supergraph coefficient must be integral: "
                f"{labeled_count}·|Aut(Q)|={num} not divisible by |Aut(P)|={aut_p}"
            )
        terms.append(SupergraphTerm(pattern=rep, coefficient=q))
    terms.sort(key=lambda t: (t.pattern.n_edges, canonical_form(t.pattern)))
    assert terms[0].pattern == pattern or find_isomorphism(terms[0].pattern, pattern)
    assert terms[0].coefficient == 1
    return terms


def induced_count_via_moebius(
    graph: Graph,
    pattern: Pattern,
    *,
    noninduced_counter: Callable[[Graph, Pattern], int] | None = None,
) -> int:
    """Vertex-induced count from edge-induced counts by Möbius inversion.

    ``noninduced(P) = Σ_{Q ⊇ P} m(P, Q) · induced(Q)`` is triangular in
    edge count, so processing supergraph classes densest-first turns it
    into back-substitution.  Each class's edge-induced count comes from
    ``noninduced_counter`` (default: the full GraphPi pipeline via
    :func:`repro.core.api.count_pattern`).

    Cost: one edge-induced count per supergraph class — worthwhile when
    an edge-induced counter is much faster than induced enumeration
    (e.g. with IEP), and the exact trade the AutoMine lineage makes.
    """
    if noninduced_counter is None:
        from repro.core.api import count_pattern

        noninduced_counter = count_pattern

    terms = supergraph_decomposition(pattern)
    # induced(Q) computed densest-first; the densest class is a clique,
    # whose induced and non-induced counts coincide.
    induced: dict[tuple[int, int], int] = {}
    for term in reversed(terms):
        key = canonical_form(term.pattern)
        total = noninduced_counter(graph, term.pattern)
        sub_terms = supergraph_decomposition(term.pattern)
        for sub in sub_terms[1:]:  # strict supergraphs of this class
            total -= sub.coefficient * induced[canonical_form(sub.pattern)]
        induced[key] = total
    value = induced[canonical_form(pattern)]
    if value < 0:
        raise AssertionError(
            f"induced count must be non-negative, got {value} — "
            "inconsistent non-induced counts"
        )
    return value


def noninduced_from_induced(
    pattern: Pattern, induced_counts: dict[tuple[int, int], int]
) -> int:
    """Forward direction: assemble the edge-induced count of ``pattern``
    from a table of vertex-induced counts keyed by canonical form.

    Used to cross-validate a motif census computed under either
    semantics against the other.
    """
    total = 0
    for term in supergraph_decomposition(pattern):
        key = canonical_form(term.pattern)
        if key not in induced_counts:
            raise KeyError(
                f"missing induced count for supergraph class {term.pattern!r}"
            )
        total += term.coefficient * induced_counts[key]
    return total


def induced_count(
    graph: Graph,
    pattern: Pattern,
    *,
    method: str = "engine",
    backend=None,
    **matcher_kwargs,
) -> int:
    """Count vertex-induced embeddings of ``pattern`` in ``graph``.

    ``method="engine"`` plans with the normal GraphPi pipeline and runs
    the anti-edge-filtering engine (through the unified session facade,
    so plans are cached per graph and ``backend=`` picks any registered
    backend); ``method="moebius"`` combines edge-induced counts of the
    supergraph lattice (can exploit IEP — and each term's edge-induced
    count runs on the requested backend, compiled by default).
    Both are tested to agree.
    """
    if pattern.n_vertices > 1 and not pattern.is_connected():
        raise ValueError("induced matching requires a connected pattern")
    if method == "engine":
        from repro.core.query import MatchQuery
        from repro.core.session import get_session

        query = MatchQuery(
            pattern=pattern, semantics="induced", use_codegen=False, **matcher_kwargs
        )
        return get_session(graph).count(query, backend=backend).count
    if method == "moebius":
        if backend is None:
            return induced_count_via_moebius(graph, pattern)
        from repro.core.api import count_pattern

        return induced_count_via_moebius(
            graph,
            pattern,
            noninduced_counter=lambda g, p: count_pattern(g, p, backend=backend),
        )
    raise ValueError(f"unknown method {method!r}: expected 'engine' or 'moebius'")

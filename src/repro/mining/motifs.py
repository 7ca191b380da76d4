"""k-motif census built on the GraphPi core.

Motif counting — counting every connected k-vertex pattern — is the
graph-mining workload the paper's introduction motivates (RStream's
1.2 TB of intermediate data for 4-motif on MiCo).  With GraphPi-style
counting the census is just one planned count per non-isomorphic
pattern, and IEP collapses the largest terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import MatchQuery
from repro.core.session import MatchSession, get_session
from repro.graph.csr import Graph
from repro.pattern.isomorphism import canonical_form, connected_patterns
from repro.pattern.pattern import Pattern


@dataclass(frozen=True)
class MotifCount:
    pattern: Pattern
    count: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MotifCount({self.pattern.name}: {self.count})"


def motif_census(
    graph: Graph, k: int, *, use_iep: bool | None = None, backend=None,
    session: MatchSession | None = None,
) -> list[MotifCount]:
    """Count every connected k-vertex motif in ``graph``.

    Returns counts ordered by edge count then canonical form (stable
    across runs).  k ≤ 5 keeps the pattern set small (3, 6, 21 motifs
    for k = 3, 4, 5).  ``backend`` selects the execution backend for
    every per-pattern count (default: the registry's default order).

    The census is a batch of :class:`~repro.core.query.MatchQuery`
    objects against one :class:`~repro.core.session.MatchSession`
    (``session`` defaults to the graph's shared one), so re-running a
    census — or mixing it with other workloads on the same graph —
    reuses every cached plan instead of re-planning per call.
    """
    if k < 3:
        raise ValueError("motif census is defined for k >= 3")
    if session is not None and session.graph is not graph:
        raise ValueError("session is bound to a different graph object")
    session = session or get_session(graph)
    # The preference rides on the query so planning can consult the
    # backend's capabilities (an IEP-incapable backend plans IEP-free).
    queries = [
        MatchQuery(pattern=p, use_iep=use_iep, backend=backend)
        for p in connected_patterns(k)
    ]
    results = session.count_many(queries)
    return [
        MotifCount(q.pattern, r.count) for q, r in zip(queries, results)
    ]


def motif_frequencies(
    graph: Graph, k: int, *, use_iep: bool | None = None, backend=None
) -> dict[str, float]:
    """Relative motif frequencies (counts normalised to sum 1)."""
    census = motif_census(graph, k, use_iep=use_iep, backend=backend)
    total = sum(m.count for m in census)
    if total == 0:
        return {m.pattern.name: 0.0 for m in census}
    return {m.pattern.name: m.count / total for m in census}


def induced_motif_census(
    graph: Graph, k: int, *, backend=None, session: MatchSession | None = None
) -> list[MotifCount]:
    """Count every connected k-vertex motif under *vertex-induced*
    semantics (the AutoMine/GraphZero definition, §V-A).

    Computed the cheap way: one edge-induced census (IEP-accelerated,
    plan-cached through the shared session), then a single triangular
    Möbius inversion over the supergraph lattice — no induced
    enumeration at all.  The diagonal of the lattice is the k-clique,
    whose counts coincide under both semantics.
    """
    from repro.core.induced import supergraph_decomposition

    census = motif_census(graph, k, backend=backend, session=session)
    noninduced = {canonical_form(m.pattern): m.count for m in census}
    induced: dict[tuple[int, int], int] = {}
    # Densest-first back-substitution (same recurrence as
    # induced_count_via_moebius, amortised across the whole census).
    for m in sorted(census, key=lambda m: -m.pattern.n_edges):
        key = canonical_form(m.pattern)
        total = noninduced[key]
        for term in supergraph_decomposition(m.pattern)[1:]:
            total -= term.coefficient * induced[canonical_form(term.pattern)]
        if total < 0:
            raise AssertionError(
                f"negative induced count for {m.pattern!r}: census inconsistent"
            )
        induced[key] = total
    return [MotifCount(m.pattern, induced[canonical_form(m.pattern)]) for m in census]


def classify_motif(pattern: Pattern, k: int) -> int:
    """Index of ``pattern`` within the canonical ``connected_patterns(k)``
    ordering (raises if the pattern is not a connected k-motif)."""
    if pattern.n_vertices != k:
        raise ValueError(f"pattern has {pattern.n_vertices} vertices, expected {k}")
    if not pattern.is_connected():
        raise ValueError("motifs are connected patterns")
    target = canonical_form(pattern)
    for idx, candidate in enumerate(connected_patterns(k)):
        if canonical_form(candidate) == target:
            return idx
    raise AssertionError("connected_patterns(k) must contain every connected k-pattern")

"""Directed pattern matching — the paper's §II-A extension, realised.

*"All patterns and data graphs are assumed to be undirected and
unlabeled graphs, although all methods proposed in this paper can be
easily extended to directed and labeled graphs."*  (§II-A; the labeled
half lives in :mod:`repro.core.labeled`.)

Every GraphPi component carries over with a local twist:

* **Algorithm 1** runs verbatim on the *direction-preserving*
  automorphism subgroup (:func:`directed_automorphisms`) — restrictions
  are still id-order pairs, ``no_conflict`` and the complete-graph
  ``validate`` are unchanged (on the complete digraph every injective
  assignment is an embedding, so count == n!/|Aut| still certifies).
* **2-phase schedules** are generated on the undirected *skeleton*
  (phase 1/2 only care that two pattern vertices interact, not which
  way the arc points) and deduplicated by the *directed* group.
* **The engine** forms candidate sets from out- or in-neighbourhoods:
  a pattern arc ``bound → searched`` constrains candidates to
  ``out_neighbors`` of the bound data vertex, ``searched → bound`` to
  ``in_neighbors``, and an antiparallel pair to their intersection.
* **The performance model** scores (schedule, restriction-set) pairs on
  the skeleton configuration against the symmetrised data graph — a
  deliberate simplification (out/in-degree asymmetry is averaged away)
  that preserves the ranking signal the model actually uses
  (cardinalities of closed wedges and restriction filter factors).

* **IEP** (§IV-D) carries over as well: the independent suffix is read
  off the skeleton, each inner vertex's candidate set intersects the
  out- or in-neighbourhoods its arcs need, and the overcount divisor is
  computed over the directed group (XMiner counts directed patterns by
  set cardinalities the same way).  Directed counting plans with IEP by
  default; enumeration uses the IEP-free plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.core.config import Configuration
from repro.core.engine import Engine
from repro.core.iep import IEPCounter
from repro.core.restrictions import (
    Restriction,
    RestrictionGenerator,
    RestrictionSet,
    SymmetryGroup,
    check_restrictions_applicable,
)
from repro.core.schedule import Schedule, generate_schedules
from repro.graph.digraph import DiGraph
from repro.graph.intersection import bounded_slice, intersect_many
from repro.graph.stats import GraphStats
from repro.pattern.directed import DiPattern, directed_automorphisms
from repro.pattern.permutation import Perm

if TYPE_CHECKING:
    from repro.core.session import PlanReport


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------
def generate_directed_restriction_sets(
    pattern: DiPattern,
    *,
    validate: bool = True,
    max_sets: int | None = None,
    auts: list[Perm] | None = None,
) -> list[RestrictionSet]:
    """Algorithm 1 on the direction-preserving automorphism subgroup
    (``auts`` passes that subgroup when the caller already holds it)."""
    if auts is None:
        auts = directed_automorphisms(pattern)
    gen = RestrictionGenerator(
        pattern.skeleton(), validate=validate, max_sets=max_sets, auts=auts
    )
    sets = gen.generate()
    if not sets:
        raise RuntimeError(
            f"Algorithm 1 produced no valid restriction set for {pattern!r}"
        )
    return sets


def generate_directed_schedules(
    pattern: DiPattern,
    *,
    dedup_automorphic: bool = True,
    auts: list[Perm] | None = None,
) -> list[Schedule]:
    """2-phase schedules on the skeleton, deduped by the directed group.

    Directed relabelling equivalence is coarser than undirected (the
    directed group is a subgroup), so dedup here keeps more schedules
    than the undirected dedup would — each genuinely distinct loop nest
    survives.  ``auts`` passes the directed group when the caller
    already holds it.
    """
    if dedup_automorphic and auts is None:
        auts = directed_automorphisms(pattern)
    return generate_schedules(
        pattern.skeleton(), dedup_automorphic=dedup_automorphic, auts=auts
    )


def directed_plan_inputs(pattern: DiPattern, max_sets: int | None):
    """(skeleton, group, restriction sets, compile function) for the
    session planner: configurations are priced on the skeleton and the
    winner lowers to a :class:`DirectedPlan`."""
    group = SymmetryGroup(directed_automorphisms(pattern))
    sets = generate_directed_restriction_sets(pattern, max_sets=max_sets, auts=group)
    return pattern.skeleton(), group, sets, partial(_compile_skeleton_config, pattern)


@dataclass(frozen=True)
class DirectedPlan:
    """Compiled loop nest for one directed configuration.

    Per depth ``d``: candidates are the intersection of
    ``out_neighbors(value at j)`` for ``j ∈ out_deps[d]`` and
    ``in_neighbors(value at j)`` for ``j ∈ in_deps[d]`` (an antiparallel
    pattern pair lists ``j`` in both), range-sliced by the restriction
    bounds exactly as in the undirected plan.

    ``iep_k > 0`` replaces the innermost k loops by Inclusion–Exclusion
    counting; ``iep_overcount`` is the §IV-D divisor, computed over the
    *directed* automorphism group (the coset argument is group-agnostic).
    """

    pattern: DiPattern
    schedule: Schedule
    restrictions: frozenset[Restriction]
    out_deps: tuple[tuple[int, ...], ...]
    in_deps: tuple[tuple[int, ...], ...]
    lower: tuple[tuple[int, ...], ...]
    upper: tuple[tuple[int, ...], ...]
    iep_k: int = 0
    iep_overcount: int = 1
    dropped_restrictions: frozenset[Restriction] = frozenset()

    @property
    def n(self) -> int:
        return len(self.schedule)

    @property
    def n_loops(self) -> int:
        """Loop depths actually executed (IEP absorbs the last iep_k)."""
        return self.n - self.iep_k


def compile_directed_plan(
    pattern: DiPattern,
    schedule: Schedule,
    restrictions: frozenset[Restriction] | set[Restriction],
    *,
    iep_k: int = 0,
    auts: list[Perm] | None = None,
) -> DirectedPlan:
    """Resolve a directed (schedule, restriction set) into per-depth ops.

    ``iep_k`` requests IEP over the innermost k loops; the last k
    scheduled vertices must be pairwise non-adjacent in the *skeleton*
    (antiparallel or single arcs both create adjacency).  Restriction
    placement mirrors the undirected compiler: outer↔inner restrictions
    become range bounds on the inner candidate sets, inner↔inner ones
    are dropped and compensated by the exact per-orbit multiplicity over
    the directed group (``auts`` passes it when the caller holds it).
    """
    from repro.core.restrictions import iep_overcount_multiplicity
    from repro.core.schedule import intersection_free_suffix_length

    n = pattern.n_vertices
    if sorted(schedule) != list(range(n)):
        raise ValueError(
            f"schedule {schedule!r} is not a permutation of the {n} pattern vertices"
        )
    skeleton = pattern.skeleton()
    check_restrictions_applicable(skeleton, restrictions)
    if not 0 <= iep_k < n:
        raise ValueError(f"iep_k={iep_k} out of range for a {n}-vertex pattern")
    if iep_k > 0:
        realisable = intersection_free_suffix_length(skeleton, schedule)
        if iep_k > realisable:
            raise ValueError(
                f"iep_k={iep_k} but schedule {schedule!r} only has an "
                f"independent suffix of length {realisable}"
            )
    position = {v: i for i, v in enumerate(schedule)}
    out_deps: list[tuple[int, ...]] = []
    in_deps: list[tuple[int, ...]] = []
    for d, v in enumerate(schedule):
        # Arc (earlier → v): candidate must be a successor of the earlier
        # binding.  Arc (v → earlier): candidate must be a predecessor.
        out_deps.append(
            tuple(j for j in range(d) if pattern.has_arc(schedule[j], v))
        )
        in_deps.append(
            tuple(j for j in range(d) if pattern.has_arc(v, schedule[j]))
        )
    inner_positions = set(range(n - iep_k, n)) if iep_k else set()
    lower: list[list[int]] = [[] for _ in range(n)]
    upper: list[list[int]] = [[] for _ in range(n)]
    dropped: set[Restriction] = set()
    for g, s in restrictions:
        pg, ps = position[g], position[s]
        if pg in inner_positions and ps in inner_positions:
            dropped.add((g, s))
            continue
        if pg > ps:
            lower[pg].append(ps)
        else:
            upper[ps].append(pg)
    overcount = 1
    if dropped:
        kept = frozenset(restrictions) - frozenset(dropped)
        if auts is None:
            auts = directed_automorphisms(pattern)
        overcount = iep_overcount_multiplicity(skeleton, kept, auts=auts)
    return DirectedPlan(
        pattern=pattern,
        schedule=tuple(schedule),
        restrictions=frozenset(restrictions),
        out_deps=tuple(out_deps),
        in_deps=tuple(in_deps),
        lower=tuple(tuple(sorted(x)) for x in lower),
        upper=tuple(tuple(sorted(x)) for x in upper),
        iep_k=iep_k,
        iep_overcount=overcount,
        dropped_restrictions=frozenset(dropped),
    )


def _compile_skeleton_config(
    pattern: DiPattern, config: Configuration, *, iep_k: int = 0, auts=None
) -> DirectedPlan:
    """:func:`compile_directed_plan` of a configuration on the skeleton."""
    return compile_directed_plan(
        pattern, config.schedule, config.restrictions, iep_k=iep_k, auts=auts
    )


class DirectedIEPCounter(IEPCounter):
    """IEP evaluator drawing inner candidate sets from out/in adjacency."""

    def _inner_sets(self, assigned):
        graph = self.graph
        plan = self.plan
        raw_cache: dict[tuple, "np.ndarray"] = {}
        sets = []
        for pos in self._inner_positions:
            out_verts = frozenset(assigned[j] for j in plan.out_deps[pos])
            in_verts = frozenset(assigned[j] for j in plan.in_deps[pos])
            lo, hi = self._bounds(pos, assigned)
            key = (out_verts, in_verts, lo, hi)
            if key not in raw_cache:
                arrays = [graph.out_neighbors(v) for v in out_verts]
                arrays += [graph.in_neighbors(v) for v in in_verts]
                arr = intersect_many(arrays) if arrays else graph.vertices()
                if lo is not None or hi is not None:
                    arr = bounded_slice(arr, lo, hi)
                raw_cache[key] = arr
            sets.append(raw_cache[key])
        return sets


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------
class DirectedEngine(Engine):
    """Nested-loop DFS over a :class:`DiGraph` under one directed plan.

    The interpreter's loops (counting, prefix tasks, enumeration) with
    one change of candidate source: depth ``d`` intersects the
    out-rows of its ``out_deps`` columns and the in-rows of its
    ``in_deps`` columns (an antiparallel pattern pair reads both).
    """

    def _iep_counter(self) -> DirectedIEPCounter:
        return DirectedIEPCounter(self.graph, self.plan)

    def _raw_candidates(self, depth: int, assigned: Sequence[int]) -> np.ndarray:
        plan = self.plan
        arrays = [self.graph.out_neighbors(assigned[j]) for j in plan.out_deps[depth]]
        arrays += [self.graph.in_neighbors(assigned[j]) for j in plan.in_deps[depth]]
        return intersect_many(arrays) if arrays else self._all_vertices


# ---------------------------------------------------------------------------
# the user-facing matcher
# ---------------------------------------------------------------------------
class DirectedMatcher:
    """Plan and execute directed pattern matching (GraphPi pipeline)
    for :class:`~repro.pattern.directed.DiPattern` on
    :class:`~repro.graph.digraph.DiGraph`.
    """

    DEFAULT_MAX_RESTRICTION_SETS = 64

    def __init__(
        self,
        pattern: DiPattern,
        *,
        max_restriction_sets: int | None = DEFAULT_MAX_RESTRICTION_SETS,
    ):
        if not pattern.is_connected():
            raise ValueError("pattern matching requires a (weakly) connected pattern")
        self.pattern = pattern
        self.max_restriction_sets = max_restriction_sets

    def plan(
        self,
        graph: DiGraph,
        *,
        stats: GraphStats | None = None,
        use_iep: bool = False,
    ) -> PlanReport:
        """Plan this pattern on ``graph`` from scratch (see
        :func:`~repro.core.session.plan_query`): the model ranks the
        skeleton configurations against the symmetrised graph
        statistics (see the module docstring for why this preserves the
        ranking signal), and ``use_iep`` compiles the winner with the
        largest IEP suffix it supports.
        """
        from repro.core.session import plan_query

        return plan_query(self._query(use_iep=use_iep), graph, stats)

    def _query(self, *, use_iep: bool | None):
        from repro.core.query import MatchQuery

        return MatchQuery(
            pattern=self.pattern,
            mode="directed",
            use_iep=use_iep,
            max_restriction_sets=self.max_restriction_sets,
        )

    def count(
        self,
        graph: DiGraph,
        *,
        use_iep: bool | None = None,
        report: PlanReport | None = None,
        backend=None,
    ) -> int:
        """Count distinct directed embeddings.

        ``use_iep=None`` takes the query default (IEP on, unless the
        backend preference cannot run directed IEP plans).

        Dispatches through the unified session facade and its backend
        registry (:mod:`repro.core.backend`); directed plans, IEP suffix
        included, run on the vectorised frontier engine by default (the
        compiled kernels, when asked for, get an IEP-free plan), with
        ``backend="parallel"`` distributing prefix tasks over worker
        processes.  An explicit ``report`` executes that exact plan;
        otherwise plans are cached on the graph's shared session.
        """
        if report is not None:
            from repro.core.backend import MatchContext, select_backend

            ctx = MatchContext(graph=graph, plan=report.plan, mode="directed")
            return select_backend(ctx, backend).count(ctx)
        from repro.core.session import get_session

        return get_session(graph).count(
            self._query(use_iep=use_iep), backend=backend
        ).count

    def match(
        self,
        graph: DiGraph,
        *,
        limit: int | None = None,
        report: PlanReport | None = None,
        backend=None,
    ) -> Iterator[tuple[int, ...]]:
        """Yield distinct directed embeddings (tuples by pattern vertex)."""
        if report is not None:
            if report.plan.iep_k:
                raise ValueError(
                    "enumeration requires a plan compiled with iep_k=0"
                )
            from repro.core.backend import MatchContext, select_backend

            ctx = MatchContext(graph=graph, plan=report.plan, mode="directed")
            chosen = select_backend(ctx, backend, for_enumeration=True)
            return chosen.enumerate_embeddings(ctx, limit=limit)
        from repro.core.session import get_session

        return get_session(graph).enumerate(
            self._query(use_iep=False), limit=limit, backend=backend
        )


def count_directed(graph: DiGraph, pattern: DiPattern, *, backend=None, **kwargs) -> int:
    """One-shot: plan + count directed embeddings."""
    return DirectedMatcher(pattern, **kwargs).count(graph, backend=backend)


def match_directed(
    graph: DiGraph,
    pattern: DiPattern,
    *,
    limit: int | None = None,
    backend=None,
    **kwargs,
) -> Iterator[tuple[int, ...]]:
    """One-shot: plan + enumerate directed embeddings."""
    return DirectedMatcher(pattern, **kwargs).match(graph, limit=limit, backend=backend)

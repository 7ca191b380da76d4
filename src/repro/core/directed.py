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
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from repro.core.config import Configuration
from repro.core.iep import IEPCounter, apply_overcount, set_partitions
from repro.core.perf_model import PerformanceModel
from repro.core.restrictions import (
    Restriction,
    RestrictionGenerator,
    RestrictionSet,
    SymmetryGroup,
    check_restrictions_applicable,
)
from repro.core.schedule import Schedule, dedup_schedules, generate_schedules
from repro.graph.digraph import DiGraph
from repro.graph.intersection import bounded_slice, intersect_many
from repro.graph.stats import GraphStats
from repro.pattern.directed import DiPattern, directed_automorphisms
from repro.pattern.permutation import Perm
from repro.utils.timing import Timer


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
    skeleton = pattern.skeleton()
    schedules = generate_schedules(skeleton, dedup_automorphic=False)
    if not dedup_automorphic:
        return schedules
    if auts is None:
        auts = directed_automorphisms(pattern)
    return dedup_schedules(skeleton, schedules, auts=auts)


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


class DirectedIEPCounter(IEPCounter):
    """IEP evaluator drawing inner candidate sets from out/in adjacency."""

    def __init__(self, graph: DiGraph, plan: DirectedPlan):
        # IEPCounter.__init__ reads plan.deps; the directed plan exposes
        # out/in splits instead, so initialise manually.
        if plan.iep_k <= 0:
            raise ValueError("IEPCounter requires a plan with iep_k > 0")
        self.graph = graph
        self.plan = plan
        n = plan.n
        k = plan.iep_k
        self._inner_positions = list(range(n - k, n))
        self._partitions = set_partitions(k)

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
class DirectedEngine:
    """Nested-loop DFS over a :class:`DiGraph` under one directed plan."""

    def __init__(self, graph: DiGraph, plan: DirectedPlan):
        self.graph = graph
        self.plan = plan
        self._all_vertices = graph.vertices()
        self._iep = DirectedIEPCounter(graph, plan) if plan.iep_k > 0 else None

    def candidates(self, depth: int, assigned: Sequence[int]) -> np.ndarray:
        plan = self.plan
        arrays = [
            self.graph.out_neighbors(assigned[j]) for j in plan.out_deps[depth]
        ] + [self.graph.in_neighbors(assigned[j]) for j in plan.in_deps[depth]]
        cand = intersect_many(arrays) if arrays else self._all_vertices
        lo: int | None = None
        for j in plan.lower[depth]:
            v = assigned[j]
            if lo is None or v > lo:
                lo = v
        hi: int | None = None
        for j in plan.upper[depth]:
            v = assigned[j]
            if hi is None or v < hi:
                hi = v
        if lo is not None or hi is not None:
            cand = bounded_slice(cand, lo, hi)
        return cand

    def count(self) -> int:
        if self.plan.n > self.graph.n_vertices:
            return 0
        raw = self._count_rec(0, [])
        return self.finalize_count(raw)

    def _count_rec(self, depth: int, assigned: list[int]) -> int:
        plan = self.plan
        cand = self.candidates(depth, assigned)
        if len(cand) == 0:
            return 0
        last_loop = plan.n_loops - 1
        if depth == last_loop:
            if plan.iep_k > 0:
                total = 0
                for v in cand:
                    vi = int(v)
                    if vi in assigned:
                        continue
                    assigned.append(vi)
                    total += self._iep.count_inner(assigned)
                    assigned.pop()
                return total
            return len(cand) - sum(1 for a in assigned if a in cand)
        total = 0
        for v in cand:
            vi = int(v)
            if vi in assigned:
                continue
            assigned.append(vi)
            total += self._count_rec(depth + 1, assigned)
            assigned.pop()
        return total

    # -- prefix tasks (the §IV-E master/worker split, directed) ----------
    def iter_prefixes(self, split_depth: int) -> Iterator[tuple[int, ...]]:
        """Enumerate outer-loop value tuples down to ``split_depth`` loops.

        Same contract as :meth:`repro.core.engine.Engine.iter_prefixes`:
        the master executes the outer loops (restrictions already
        applied), workers continue from each prefix.
        """
        if self.plan.n_loops < 2:
            raise ValueError(
                "prefix splitting needs at least two executed loops; this plan "
                f"has n_loops={self.plan.n_loops} (IEP absorbed the rest)"
            )
        if not 1 <= split_depth < self.plan.n_loops:
            raise ValueError(
                f"split_depth must be in [1, {self.plan.n_loops - 1}], got {split_depth}"
            )

        def rec(depth: int, assigned: list[int]) -> Iterator[tuple[int, ...]]:
            if depth == split_depth:
                yield tuple(assigned)
                return
            for v in self.candidates(depth, assigned):
                vi = int(v)
                if vi in assigned:
                    continue
                assigned.append(vi)
                yield from rec(depth + 1, assigned)
                assigned.pop()

        yield from rec(0, [])

    def count_prefix(self, prefix: tuple[int, ...]) -> int:
        """Count embeddings under an outer-loop prefix (one worker task).

        Raw (no IEP overcount division), so task partials can be summed
        before the single final :meth:`finalize_count` division.
        """
        return self._count_rec(len(prefix), list(prefix))

    def finalize_count(self, raw_total: int) -> int:
        """Apply the IEP overcount divisor to a sum of task results."""
        return apply_overcount(self.plan, raw_total)

    def enumerate_embeddings(
        self, limit: int | None = None
    ) -> Iterator[tuple[int, ...]]:
        """Yield embeddings as tuples ``emb[pattern_vertex] = data vertex``.

        Validation is eager (this is a plain function returning a
        generator), so an IEP plan fails at the call site, not at the
        first ``next()``.
        """
        if self.plan.iep_k > 0:
            raise ValueError("enumeration requires a plan compiled with iep_k=0")
        return self._enumerate(limit)

    def _enumerate(self, limit: int | None) -> Iterator[tuple[int, ...]]:
        if self.plan.n > self.graph.n_vertices:
            return
        schedule = self.plan.schedule
        inverse = [0] * len(schedule)
        for pos, v in enumerate(schedule):
            inverse[v] = pos
        remaining = float("inf") if limit is None else limit

        def rec(depth: int, assigned: list[int]) -> Iterator[list[int]]:
            cand = self.candidates(depth, assigned)
            if depth == self.plan.n - 1:
                for v in cand:
                    vi = int(v)
                    if vi not in assigned:
                        assigned.append(vi)
                        yield assigned
                        assigned.pop()
                return
            for v in cand:
                vi = int(v)
                if vi in assigned:
                    continue
                assigned.append(vi)
                yield from rec(depth + 1, assigned)
                assigned.pop()

        for assigned in rec(0, []):
            if remaining <= 0:
                return
            remaining -= 1
            yield tuple(assigned[inverse[v]] for v in range(len(schedule)))


# ---------------------------------------------------------------------------
# the user-facing matcher
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DirectedPlanReport:
    """Preprocessing output of :meth:`DirectedMatcher.plan`."""

    pattern: DiPattern
    restriction_sets: tuple[RestrictionSet, ...]
    n_schedules: int
    chosen_schedule: Schedule
    chosen_restrictions: RestrictionSet
    predicted_cost: float
    plan: DirectedPlan
    seconds_total: float


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
        self._restriction_cache: list[RestrictionSet] | None = None
        self._schedule_cache: list[Schedule] | None = None

    @cached_property
    def _group(self) -> SymmetryGroup:
        """The direction-preserving group, enumerated once per matcher."""
        return SymmetryGroup(directed_automorphisms(self.pattern))

    def restriction_sets(self) -> list[RestrictionSet]:
        if self._restriction_cache is None:
            self._restriction_cache = generate_directed_restriction_sets(
                self.pattern, max_sets=self.max_restriction_sets, auts=self._group
            )
        return self._restriction_cache

    def schedules(self) -> list[Schedule]:
        if self._schedule_cache is None:
            self._schedule_cache = generate_directed_schedules(
                self.pattern, auts=self._group
            )
        return self._schedule_cache

    def plan(
        self,
        graph: DiGraph,
        *,
        stats: GraphStats | None = None,
        use_iep: bool = False,
    ) -> DirectedPlanReport:
        """Rank all (schedule, restriction set) pairs and compile the best.

        Ranking runs the undirected performance model on the skeleton
        configuration against the symmetrised graph statistics (see the
        module docstring for why this preserves the ranking signal).
        ``use_iep`` compiles the chosen configuration with the largest
        realisable IEP suffix, shrinking k until the overcount divisor
        is uniform (mirroring the undirected planner).
        """
        from repro.core.restrictions import NonUniformOvercountError
        from repro.core.schedule import intersection_free_suffix_length

        with Timer() as t:
            if stats is None:
                stats = GraphStats.of(graph.to_undirected())
            res_sets = self.restriction_sets()
            schedules = self.schedules()
            skeleton = self.pattern.skeleton()
            configs = [
                Configuration(skeleton, s, frozenset(r))
                for s in schedules
                for r in res_sets
            ]
            ranking = PerformanceModel(stats).rank(configs)
            best = ranking[0]
            iep_k = 0
            if use_iep:
                iep_k = intersection_free_suffix_length(
                    skeleton, best.config.schedule
                )
            plan = None
            while plan is None:
                try:
                    plan = compile_directed_plan(
                        self.pattern,
                        best.config.schedule,
                        best.config.restrictions,
                        iep_k=iep_k,
                        auts=self._group,
                    )
                except NonUniformOvercountError:
                    iep_k -= 1  # k = 1 drops nothing, so this terminates
        return DirectedPlanReport(
            pattern=self.pattern,
            restriction_sets=tuple(res_sets),
            n_schedules=len(schedules),
            chosen_schedule=best.config.schedule,
            chosen_restrictions=frozenset(best.config.restrictions),
            predicted_cost=best.predicted_cost,
            plan=plan,
            seconds_total=t.elapsed,
        )

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
        report: DirectedPlanReport | None = None,
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
        report: DirectedPlanReport | None = None,
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

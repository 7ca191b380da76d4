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
* **The plan** is the one :class:`~repro.core.config.ExecutionPlan` of
  every mode: ``compile_plan(config, dipattern=...)`` lowers each
  pattern arc into a dependency ref — ``bound → searched`` reads the
  bound data vertex's out-row, ``searched → bound`` its in-row, and an
  antiparallel pair both.  Every executor reads the refs; none knows
  the graph is directed.
* **The performance model** scores (schedule, restriction-set) pairs on
  the skeleton configuration against the symmetrised data graph — a
  deliberate simplification (out/in-degree asymmetry is averaged away)
  that preserves the ranking signal the model actually uses
  (cardinalities of closed wedges and restriction filter factors).

* **IEP** (§IV-D) carries over as well: the independent suffix is read
  off the skeleton, each inner vertex's candidate set intersects the
  rows its refs name, and the overcount divisor is computed over the
  directed group (XMiner counts directed patterns by
  set cardinalities the same way).  Directed counting plans with IEP by
  default; enumeration uses the IEP-free plan.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Iterator

from repro.core.config import compile_plan
from repro.core.restrictions import (
    RestrictionGenerator,
    RestrictionSet,
    SymmetryGroup,
)
from repro.core.schedule import Schedule, generate_schedules
from repro.graph.digraph import DiGraph
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
    winner is lowered with the pattern's arcs."""
    group = SymmetryGroup(directed_automorphisms(pattern))
    sets = generate_directed_restriction_sets(pattern, max_sets=max_sets, auts=group)
    return pattern.skeleton(), group, sets, partial(compile_plan, dipattern=pattern)


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

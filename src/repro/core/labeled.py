"""Labeled pattern matching: GraphPi's machinery + label constraints.

The pipeline is the unlabeled one with three changes:

1. **Restrictions** come from the *label-preserving* automorphism
   subgroup (:func:`repro.pattern.labeled.labeled_automorphisms`) — a
   restriction between differently-labeled vertices would be meaningless
   (they can never swap) and one derived from a label-breaking symmetry
   would wrongly discard embeddings.  Algorithm 1 is reused by running
   its recursion on the labeled subgroup.
2. **Candidates** are filtered by label at every depth: the winner is
   lowered with the wanted labels (``compile_plan(..., labels=)``), so
   each depth of the one :class:`~repro.core.config.ExecutionPlan`
   carries its label and every executor masks its sorted candidates
   with it.
3. **The cost model**'s loop sizes shrink by the label frequency: the
   session planner (:func:`~repro.core.session.plan_query`) prices each
   configuration as for a plain pattern and scales it by
   :func:`label_weight`, the product of the wanted labels' data-graph
   frequencies — the obvious estimator, and enough to rank
   configurations.

IEP counting composes untouched: the inner candidate sets are
label-filtered before the partition formula runs, and the overcount
divisor comes from the label-preserving subgroup.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.core.config import compile_plan
from repro.core.restrictions import (
    RestrictionGenerator,
    RestrictionSet,
    SymmetryGroup,
)
from repro.graph.labeled import LabeledGraph
from repro.graph.stats import GraphStats
from repro.pattern.labeled import LabeledPattern, labeled_automorphisms
from repro.pattern.permutation import Perm

if TYPE_CHECKING:
    from repro.core.session import PlanReport


def labeled_restriction_sets(
    lp: LabeledPattern, *, max_sets: int | None = 64, auts: list[Perm] | None = None
) -> list[RestrictionSet]:
    """Algorithm 1 on the label-preserving automorphism subgroup.

    ``auts`` passes that subgroup when the caller already holds it.  The
    generator's complete-graph check counts against the subgroup's
    order; since only the identity survives ``no_conflict`` at an
    accepted leaf, that count implies exactly one satisfying member per
    coset of the subgroup.
    """
    if auts is None:
        auts = labeled_automorphisms(lp)
    sets = RestrictionGenerator(lp.pattern, auts=auts, max_sets=max_sets).generate()
    if not sets:
        raise RuntimeError(f"no valid labeled restriction set for {lp!r}")
    return sets


def labeled_plan_inputs(lp: LabeledPattern, max_sets: int | None):
    """(structure, group, restriction sets, compile function) for the
    session planner: the label-preserving subgroup, whose symmetry the
    restriction sets break, also divides the IEP overcount, and the
    winner is lowered with the pattern's labels."""
    group = SymmetryGroup(labeled_automorphisms(lp))
    sets = labeled_restriction_sets(lp, max_sets=max_sets, auts=group)
    return lp.pattern, group, sets, partial(compile_plan, labels=lp.labels)


def label_weight(lp: LabeledPattern, lgraph: LabeledGraph):
    """The cost factor of a schedule: the product, in schedule order, of
    the data-graph frequencies of the labels its depths want (floored at
    1e-12 so a missing label still ranks)."""
    hist = lgraph.label_histogram()
    n = max(1, lgraph.n_vertices)

    def weight(schedule) -> float:
        w = 1.0
        for v in schedule:
            w *= hist.get(lp.labels[v], 0) / n
        return max(w, 1e-12)

    return weight


class LabeledMatcher:
    """Plan + execute labeled pattern matching."""

    def __init__(self, lpattern: LabeledPattern, *, max_restriction_sets: int | None = 64):
        if not lpattern.pattern.is_connected():
            raise ValueError("pattern must be connected")
        self.lpattern = lpattern
        self.max_restriction_sets = max_restriction_sets

    def plan(
        self,
        lgraph: LabeledGraph,
        *,
        use_iep: bool = False,
        stats: GraphStats | None = None,
    ) -> PlanReport:
        """Plan this pattern on ``lgraph`` from scratch (see
        :func:`~repro.core.session.plan_query`)."""
        from repro.core.session import plan_query

        return plan_query(self._query(use_iep=use_iep), lgraph, stats)

    def _query(self, *, use_iep: bool):
        from repro.core.query import MatchQuery

        return MatchQuery(
            pattern=self.lpattern,
            mode="labeled",
            use_iep=use_iep,
            max_restriction_sets=self.max_restriction_sets,
        )

    def count(self, lgraph: LabeledGraph, *, use_iep: bool = False, backend=None) -> int:
        """Count labeled embeddings through the unified session facade.

        With no preference the vectorised frontier engine applies the
        label masks in bulk (an explicit ``use_iep=True`` plan falls
        back to the interpreter); ``backend="parallel"`` fans prefix
        tasks out to interpreter workers.  Plans are cached
        on the graph's shared session, so repeat calls skip planning.
        """
        from repro.core.session import get_session

        return get_session(lgraph).count(
            self._query(use_iep=use_iep), backend=backend
        ).count

    def match(self, lgraph: LabeledGraph, *, limit: int | None = None, backend=None):
        from repro.core.session import get_session

        return get_session(lgraph).enumerate(
            self._query(use_iep=False), limit=limit, backend=backend
        )


def labeled_count(lgraph: LabeledGraph, lpattern: LabeledPattern, *, backend=None) -> int:
    """One-shot labeled counting (through the shared session's plan cache)."""
    return LabeledMatcher(lpattern).count(lgraph, backend=backend)


def labeled_bruteforce_count(lgraph: LabeledGraph, lpattern: LabeledPattern) -> int:
    """Oracle for tests: naive backtracking, divided by the labeled |Aut|."""
    n = lpattern.n_vertices
    graph = lgraph.graph
    if n > graph.n_vertices:
        return 0
    pattern = lpattern.pattern
    assignment: list[int] = []
    used: set[int] = set()
    total = 0

    def backtrack(v: int) -> None:
        nonlocal total
        if v == n:
            total += 1
            return
        for cand in range(graph.n_vertices):
            if cand in used or lgraph.label_of(cand) != lpattern.labels[v]:
                continue
            if all(
                graph.has_edge(assignment[p], cand)
                for p in range(v)
                if pattern.has_edge(p, v)
            ):
                assignment.append(cand)
                used.add(cand)
                backtrack(v + 1)
                used.remove(cand)
                assignment.pop()

    backtrack(0)
    aut = len(labeled_automorphisms(lpattern))
    q, r = divmod(total, aut)
    if r:
        raise AssertionError("labeled assignment count not divisible by labeled |Aut|")
    return q

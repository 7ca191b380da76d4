"""The pattern-matching execution engine (nested-loop DFS).

This is the interpreter for :class:`repro.core.config.ExecutionPlan`:
one loop per scheduled pattern vertex, candidate sets formed by
intersecting the sorted neighbourhoods of already-bound neighbours
(paper Fig. 5(b)), restrictions enforced as binary-search range slices
on the sorted candidate stream (generalising the paper's ``break``), and
optionally the innermost ``iep_k`` loops replaced by Inclusion–Exclusion
counting (§IV-D).

Three modes:

* ``count()``        — embedding count only (last-loop shortcut: the
  deepest loop never iterates, its candidates are just counted);
* ``enumerate_embeddings()`` — yields embeddings as tuples indexed by
  *pattern vertex* (not schedule position);
* prefix tasks       — ``iter_prefixes``/``count_prefix`` split the
  outermost loops from the inner ones, which is exactly the paper's
  master/worker task partitioning (§IV-E).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.config import OUT, Configuration, ExecutionPlan, bind_graph
from repro.core.iep import IEPCounter, apply_overcount
from repro.graph.csr import Graph
from repro.graph.intersection import (
    bounded_slice,
    contains,
    difference,
    intersect_many,
)


class Engine:
    """Executes one plan against one graph.

    A plan with more vertices than the graph is not an error: there are
    simply no embeddings, and counting returns 0 uniformly.  Every mode
    runs the same loops: each depth reads the plan's dependency refs,
    restriction bounds, wanted label and anti columns
    (:mod:`repro.core.config`), and an IEP suffix is evaluated by one
    :class:`~repro.core.iep.IEPCounter` reading the same operations.
    """

    def __init__(self, graph, plan: ExecutionPlan):
        self.plan = plan
        self.graph, self._rows, self._labels = bind_graph(graph, plan)
        self._all_vertices = self.graph.vertices()
        self._iep = IEPCounter(graph, plan) if plan.iep_k > 0 else None
        # Loop-invariant hoisting (paper Fig. 5(b): tmpAB is computed in
        # loop B and reused across the whole D loop).  The raw candidate
        # intersection of depth d only depends on the values bound at
        # its ref columns; a single-slot cache per depth exploits the
        # DFS order.
        self._raw_cache: list[tuple | None] = [None] * plan.n

    def _raw_candidates(self, depth: int, assigned: Sequence[int]) -> np.ndarray:
        refs = self.plan.refs[depth]
        if not refs:
            return self._all_vertices
        rows = self._rows
        if len(refs) == 1:
            j, way = refs[0]
            return rows[way](assigned[j])
        key = tuple(assigned[j] for j, _ in refs)
        slot = self._raw_cache[depth]
        if slot is not None and slot[0] == key:
            return slot[1]
        arr = intersect_many([rows[way](assigned[j]) for j, way in refs])
        self._raw_cache[depth] = (key, arr)
        return arr

    # ------------------------------------------------------------------
    # candidate computation
    # ------------------------------------------------------------------
    def candidates(self, depth: int, assigned: Sequence[int]) -> np.ndarray:
        """Sorted candidate array for loop ``depth`` (before used-vertex
        exclusion, which the loops handle inline): the refs' rows
        intersected, sliced to the restriction window, filtered to the
        wanted label and stripped of the anti columns' neighbours."""
        plan = self.plan
        cand = self._raw_candidates(depth, assigned)
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
        if self._labels is not None:
            cand = cand[self._labels[cand] == plan.labels[depth]]
        for j in plan.anti[depth]:
            if len(cand) == 0:
                break
            cand = difference(cand, self._rows[OUT](assigned[j]))
        return cand

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Total number of embeddings under this plan.

        When the plan carries restrictions that eliminate all
        automorphisms, this is the number of *distinct* embeddings; with
        no restrictions it counts every automorphic image separately.
        """
        if self.plan.n > self.graph.n_vertices:
            return 0
        return self.finalize_count(self._count_rec(0, []))

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
            # plain innermost loop: count candidates not already used
            used = sum(1 for a in assigned if contains(cand, a))
            return len(cand) - used
        total = 0
        for v in cand:
            vi = int(v)
            if vi in assigned:
                continue
            assigned.append(vi)
            total += self._count_rec(depth + 1, assigned)
            assigned.pop()
        return total

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def enumerate_embeddings(self, limit: int | None = None) -> Iterator[tuple[int, ...]]:
        """Yield embeddings as tuples ``emb[pattern_vertex] = data vertex``.

        Enumeration is incompatible with IEP (IEP never materialises the
        inner vertices) — compile the plan with ``iep_k=0`` to list.
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
        for assigned in self._enumerate_rec(0, []):
            if remaining <= 0:
                return
            remaining -= 1
            yield tuple(assigned[inverse[v]] for v in range(len(schedule)))

    def _enumerate_rec(self, depth: int, assigned: list[int]) -> Iterator[list[int]]:
        cand = self.candidates(depth, assigned)
        last = self.plan.n - 1
        if depth == last:
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
            yield from self._enumerate_rec(depth + 1, assigned)
            assigned.pop()

    # ------------------------------------------------------------------
    # prefix tasks (distributed execution, §IV-E)
    # ------------------------------------------------------------------
    def iter_prefixes(self, split_depth: int) -> Iterator[tuple[int, ...]]:
        """Enumerate outer-loop value tuples down to ``split_depth`` loops.

        This is the master thread of the paper: it executes the outer
        loops and packs their values into tasks.  Restrictions and
        dependencies at those depths are already applied, so workers
        receive only viable prefixes.
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

        The returned value is *raw* (no IEP overcount division) so that
        partial sums from many tasks can be added before the single
        final division — mirroring the distributed implementation.
        """
        return self._count_rec(len(prefix), list(prefix))

    def finalize_count(self, raw_total: int) -> int:
        """Apply the IEP overcount divisor to a sum of task results."""
        return apply_overcount(self.plan, raw_total)


# ---------------------------------------------------------------------------
# convenience wrappers
# ---------------------------------------------------------------------------
def count_embeddings(graph: Graph, plan_or_config) -> int:
    """Count embeddings for a plan or configuration on ``graph``."""
    plan = _as_plan(plan_or_config)
    return Engine(graph, plan).count()


def enumerate_embeddings(graph: Graph, plan_or_config, limit: int | None = None):
    plan = _as_plan(plan_or_config)
    return Engine(graph, plan).enumerate_embeddings(limit=limit)


def _as_plan(plan_or_config) -> ExecutionPlan:
    if isinstance(plan_or_config, ExecutionPlan):
        return plan_or_config
    if isinstance(plan_or_config, Configuration):
        return plan_or_config.compile()
    raise TypeError(f"expected ExecutionPlan or Configuration, got {type(plan_or_config)!r}")

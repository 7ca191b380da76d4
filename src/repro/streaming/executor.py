"""Delta execution: anchored enumeration against live DynamicGraph adjacency.

Two interchangeable strategies, selected per batch by
:class:`~repro.streaming.session.StreamSession`:

* ``"single"`` — pure set algebra on the :class:`DynamicGraph`'s live
  adjacency sets (:meth:`~repro.graph.dynamic.DynamicGraph.neighbors_view`).
  No arrays are built, so a lone update pays only for the handful of
  set probes around the touched edge.
* ``"bulk"``   — the churn-burst path: per-vertex sorted numpy rows,
  maintained incrementally in a cache invalidated only for the two
  endpoints each mutation touches (GraphMini-style auxiliary reuse),
  with candidates formed by the same
  :mod:`repro.graph.intersection` bulk primitives the vectorised
  frontier backend runs on (``intersect_many`` + ``bounded_slice``).
  Row construction is amortised across every update in the burst and
  across every watched query sharing the executor.

Both strategies execute the same :class:`~repro.streaming.delta_plan`
sub-plans and agree exactly (pinned by the streaming tests); ordering
semantics — insert counted in the post-update graph, delete in the
pre-update graph — belong to the session, which mutates the graph and
calls :meth:`DeltaExecutor.invalidate` in the right order.
"""

from __future__ import annotations

import numpy as np

from repro.graph.dynamic import DynamicGraph
from repro.graph.intersection import (
    VERTEX_DTYPE,
    bounded_slice,
    intersect_many,
)
from repro.streaming.delta_plan import AnchoredPlan, DeltaPlan

#: strategies apply() can request explicitly.
STRATEGIES = ("single", "bulk")


class DeltaExecutor:
    """Counts embeddings through one data edge, under one graph state."""

    def __init__(self, graph: DynamicGraph):
        self.graph = graph
        self._rows: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # cache maintenance (the session calls this after every mutation)
    # ------------------------------------------------------------------
    def invalidate(self, u: int, v: int) -> None:
        """Drop the sorted rows of the two endpoints a mutation touched."""
        self._rows.pop(u, None)
        self._rows.pop(v, None)

    def invalidate_all(self) -> None:
        self._rows.clear()

    @property
    def cached_rows(self) -> int:
        """How many sorted rows the bulk cache currently holds."""
        return len(self._rows)

    def _row(self, v: int) -> np.ndarray:
        """v's neighbourhood as a sorted numpy row (cached until touched)."""
        row = self._rows.get(v)
        if row is None:
            row = np.fromiter(
                sorted(self.graph.neighbors_view(v)),
                dtype=VERTEX_DTYPE,
                count=self.graph.degree(v),
            )
            self._rows[v] = row
        return row

    # ------------------------------------------------------------------
    # the edge-delta primitive
    # ------------------------------------------------------------------
    def count_edge(self, plan: DeltaPlan, a: int, b: int, *,
                   strategy: str = "single") -> int:
        """Distinct embeddings of ``plan.pattern`` using data edge ``{a, b}``.

        The edge must be present in the current graph state — the
        session guarantees that by counting inserts *after* and deletes
        *before* the mutation.
        """
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}: expected one of {STRATEGIES}"
            )
        count_one = (
            self._count_anchored_sets if strategy == "single"
            else self._count_anchored_bulk
        )
        return sum(count_one(ap, a, b) for ap in plan.anchored)

    # -- set strategy ---------------------------------------------------
    def _count_anchored_sets(self, ap: AnchoredPlan, a: int, b: int) -> int:
        if ap.n_free == 0:
            return 1  # the anchored edge is the whole pattern
        graph = self.graph
        anchors = (a, b)
        bound: list[int] = []

        def candidates(depth: int) -> tuple[set[int], list[set[int]]]:
            sets = [
                graph.neighbors_view(anchors[i])
                for i, used in enumerate(ap.anchor_deps[depth])
                if used
            ]
            sets += [graph.neighbors_view(bound[j]) for j in ap.free_deps[depth]]
            base = min(sets, key=len)
            return base, [s for s in sets if s is not base]

        def bounds(depth: int) -> tuple[int | None, int | None]:
            lo = max((bound[j] for j in ap.lower[depth]), default=None)
            ups = [bound[j] for j in ap.upper[depth]]
            return lo, (min(ups) if ups else None)

        last = ap.n_free - 1

        def rec(depth: int) -> int:
            # candidate intersection and exclusion are set operations, so
            # the per-candidate work runs in C, not in a Python predicate
            base, others = candidates(depth)
            cands = base.intersection(*others) if others else base
            used = {a, b, *bound}
            lo, hi = bounds(depth)
            if lo is None and hi is None:
                if depth == last:
                    return len(cands) - len(used & cands)
                picks = cands - used
            else:
                lo = -1 if lo is None else lo
                hi = float("inf") if hi is None else hi
                picks = [w for w in cands if lo < w < hi and w not in used]
                if depth == last:
                    return len(picks)
            total = 0
            for w in picks:
                bound.append(w)
                total += rec(depth + 1)
                bound.pop()
            return total

        return rec(0)

    # -- bulk strategy --------------------------------------------------
    def _count_anchored_bulk(self, ap: AnchoredPlan, a: int, b: int) -> int:
        if ap.n_free == 0:
            return 1
        anchors = (a, b)
        bound: list[int] = []
        last = ap.n_free - 1

        def candidates(depth: int) -> np.ndarray:
            rows = [
                self._row(anchors[i])
                for i, used in enumerate(ap.anchor_deps[depth])
                if used
            ]
            rows += [self._row(bound[j]) for j in ap.free_deps[depth]]
            cand = intersect_many(rows)
            lo = max((bound[j] for j in ap.lower[depth]), default=None)
            ups = [bound[j] for j in ap.upper[depth]]
            hi = min(ups) if ups else None
            if lo is not None or hi is not None:
                cand = bounded_slice(cand, lo, hi)
            return cand

        def rec(depth: int) -> int:
            cand = candidates(depth)
            if len(cand) == 0:
                return 0
            used = {a, b, *bound}
            if depth == last:
                # last-loop shortcut: count candidates, subtracting the
                # already-used vertices present in the window.
                return len(cand) - len(used.intersection(cand.tolist()))
            total = 0
            for w in cand.tolist():
                if w in used:
                    continue
                bound.append(w)
                total += rec(depth + 1)
                bound.pop()
            return total

        return rec(0)

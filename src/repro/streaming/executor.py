"""Delta execution: anchored enumeration against live DynamicGraph adjacency.

Pure set algebra on the :class:`DynamicGraph`'s live adjacency sets
(:meth:`~repro.graph.dynamic.DynamicGraph.neighbors_view`): no arrays
are built and nothing is cached, so an update pays only for the set
probes around the touched edge and a mutation never leaves stale state
behind.  Numpy does not pay here: the intersections around one edge
are small, so per-anchor numpy calls cost more than the set operations
(sorted numpy rows took about twice as long per update at batch sizes
16 and 256 on the ``bench_streaming.py`` proxy).

The executor runs the :class:`~repro.streaming.delta_plan` sub-plans;
ordering semantics — insert counted in the post-update graph, delete in
the pre-update graph — belong to the session, which mutates the graph
around each :meth:`DeltaExecutor.count_edge` call.
"""

from __future__ import annotations

from repro.graph.dynamic import DynamicGraph
from repro.streaming.delta_plan import AnchoredPlan, DeltaPlan


class DeltaExecutor:
    """Counts embeddings through one data edge, under one graph state."""

    def __init__(self, graph: DynamicGraph):
        self.graph = graph

    def count_edge(self, plan: DeltaPlan, a: int, b: int) -> int:
        """Distinct embeddings of ``plan.pattern`` using data edge ``{a, b}``.

        The edge must be present in the current graph state — the
        session guarantees that by counting inserts *after* and deletes
        *before* the mutation.
        """
        return sum(self._count_anchored(ap, a, b) for ap in plan.anchored)

    def _count_anchored(self, ap: AnchoredPlan, a: int, b: int) -> int:
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

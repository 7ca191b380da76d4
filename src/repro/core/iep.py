"""Counting with the Inclusion–Exclusion Principle (§IV-D, Algorithm 2).

After the outer ``n-k`` loops have bound their vertices, the innermost
``k`` pattern vertices are pairwise non-adjacent, so each has a candidate
set ``S_i`` fully determined by the outer assignment (an intersection of
neighbourhoods of bound vertices, minus the bound vertices themselves).
The number of ways to finish the embedding is

    |S_IEP| = #{(e_1..e_k) : e_i ∈ S_i, all e_i distinct}.

The paper computes this by inclusion–exclusion over the "equality events"
``A_{i,j} = {tuples with e_i = e_j}``; Algorithm 2 evaluates each
intersection of events by splitting the equality graph into connected
components and multiplying ``|∩_{i∈C} S_i|`` over components ``C``.

Summing over all 2^(k(k-1)/2) subsets of pairs and grouping by the
induced component partition collapses into the **partition-lattice
formula**

    |S_IEP| = Σ_{partitions π of [k]}  Π_{B ∈ π} μ(|B|) · |∩_{i∈B} S_i|,
    μ(m) = (-1)^(m-1) · (m-1)!

(Bell(k) terms instead of 2^(k(k-1)/2)).  Both evaluations are
implemented; tests assert they agree, and the benchmark suite ablates
them.  Component/block intersections are cached because distinct
partitions reuse the same blocks.

Inner-loop restrictions cannot be enforced inside the IEP (the tuples
are never enumerated), so plans drop them and the engine divides by the
number of automorphisms that survive the remaining restrictions
(``plan.iep_overcount``) — the paper's final paragraph of §IV-D.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Iterator, Sequence

import numpy as np

from repro.core.config import bind_graph
from repro.graph.intersection import bounded_slice, contains, intersect_many


@lru_cache(maxsize=32)
def set_partitions(k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All partitions of {0..k-1} into non-empty blocks (Bell(k) many)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return ((),)
    out: list[tuple[tuple[int, ...], ...]] = []

    def rec(element: int, blocks: list[list[int]]) -> None:
        if element == k:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(element)
            rec(element + 1, blocks)
            b.pop()
        blocks.append([element])
        rec(element + 1, blocks)
        blocks.pop()

    rec(0, [])
    return tuple(out)


def partition_coefficient(partition: Sequence[Sequence[int]]) -> int:
    """μ(π) = Π_B (-1)^(|B|-1) (|B|-1)! — the partition-lattice Möbius weight."""
    coeff = 1
    for block in partition:
        m = len(block)
        coeff *= (-1) ** (m - 1) * factorial(m - 1)
    return coeff


def apply_overcount(plan, raw_total: int) -> int:
    """Divide a raw (summed) count by the plan's IEP overcount ``x``.

    Every executor returns raw counts from its per-task entry points so
    that partial sums add; this is the single final division, and it
    must be exact — a remainder means the plan or the count is wrong.
    """
    if plan.iep_k == 0 or plan.iep_overcount == 1:
        return raw_total
    q, r = divmod(raw_total, plan.iep_overcount)
    if r:
        raise AssertionError(
            f"IEP overcount must divide the total: {raw_total} / "
            f"{plan.iep_overcount}"
        )
    return q


def count_distinct_tuples(sets: Sequence[np.ndarray]) -> int:
    """|{(e_1..e_k) ∈ S_1×…×S_k : all distinct}| via the partition formula.

    ``sets`` are sorted vertex arrays.  Identical arrays may be passed
    by reference; caching keys on ``id`` of the arrays per call.
    """
    k = len(sets)
    if k == 0:
        return 1
    cache: dict[frozenset[int], int] = {}

    def block_card(block: Sequence[int]) -> int:
        key = frozenset(id(sets[i]) for i in block)
        if key not in cache:
            arrays = {id(sets[i]): sets[i] for i in block}
            inter = intersect_many(list(arrays.values()))
            cache[key] = len(inter)
        return cache[key]

    total = 0
    for partition in set_partitions(k):
        term = partition_coefficient(partition)
        for block in partition:
            if term == 0:
                break
            term *= block_card(block)
        total += term
    return total


def count_distinct_tuples_pairs(sets: Sequence[np.ndarray]) -> int:
    """The paper's literal formulation: IEP over subsets of equality pairs.

    Exponential in k(k-1)/2 — retained as the executable specification
    (tests assert equality with the partition formula) and for the
    ablation benchmark.
    """
    k = len(sets)
    if k == 0:
        return 1
    pairs = list(combinations(range(k), 2))
    total = 0
    for mask in range(1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        total += (-1) ** len(chosen) * _event_intersection_cardinality(sets, k, chosen)
    return total


def _event_intersection_cardinality(
    sets: Sequence[np.ndarray], k: int, pairs: Sequence[tuple[int, int]]
) -> int:
    """Algorithm 2: |A_{i1,j1} ∩ … ∩ A_{im,jm}|.

    Union-find the equality pairs into connected components; multiply
    |∩_{i∈C} S_i| over components.
    """
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    comps: dict[int, list[int]] = {}
    for i in range(k):
        comps.setdefault(find(i), []).append(i)
    result = 1
    for comp in comps.values():
        inter = intersect_many([sets[i] for i in comp]) if len(comp) > 1 else sets[comp[0]]
        result *= len(inter)
        if result == 0:
            return 0
    return result


class IEPCounter:
    """Per-plan IEP evaluator bound to a graph.

    For one outer assignment it materialises each inner vertex's
    candidate set from the plan's operations at that depth — the refs'
    rows intersected, sliced by any outer↔inner restriction bounds the
    plan kept, filtered to the wanted label — removes bound vertices,
    and applies the partition formula.  Candidate sets are cached by
    their (refs, bounds, label) signature, because different inner
    vertices frequently share them.  The overcount divisor comes from
    the group the plan was compiled against (the labeled or directed
    subgroup in those modes).
    """

    def __init__(self, graph, plan):
        self.plan = plan
        self.graph, self._rows, self._labels = bind_graph(graph, plan)
        n = plan.n
        k = plan.iep_k
        if k <= 0:
            raise ValueError("IEPCounter requires a plan with iep_k > 0")
        self._inner_positions = list(range(n - k, n))
        self._partitions = set_partitions(k)

    def _inner_sets(self, assigned: Sequence[int]) -> list[np.ndarray]:
        """Materialise the k inner candidate arrays for one outer
        assignment."""
        plan = self.plan
        rows = self._rows
        # Distinct (refs, bounds, label) signatures → shared arrays.
        raw_cache: dict[tuple, np.ndarray] = {}
        sets: list[np.ndarray] = []
        for pos in self._inner_positions:
            refs = frozenset((assigned[j], way) for j, way in plan.refs[pos])
            lo, hi = self._bounds(pos, assigned)
            label = plan.labels[pos]
            key = (refs, lo, hi, label)
            if key not in raw_cache:
                if refs:
                    arr = intersect_many([rows[way](v) for v, way in refs])
                else:
                    arr = self.graph.vertices()
                if lo is not None or hi is not None:
                    arr = bounded_slice(arr, lo, hi)
                if self._labels is not None:
                    arr = arr[self._labels[arr] == label]
                raw_cache[key] = arr
            sets.append(raw_cache[key])
        return sets

    def _bounds(self, pos: int, assigned: Sequence[int]) -> tuple[int | None, int | None]:
        plan = self.plan
        lo: int | None = None
        for j in plan.lower[pos]:
            v = assigned[j]
            if lo is None or v > lo:
                lo = v
        hi: int | None = None
        for j in plan.upper[pos]:
            v = assigned[j]
            if hi is None or v < hi:
                hi = v
        return lo, hi

    def count_inner(self, assigned: Sequence[int]) -> int:
        """|S_IEP| for the current outer assignment (``len == n - k``)."""
        sets = self._inner_sets(assigned)

        # Cardinality of a block intersection minus bound vertices.
        card_cache: dict[frozenset[int], int] = {}

        def block_card(block: Sequence[int]) -> int:
            key = frozenset(id(sets[i]) for i in block)
            if key not in card_cache:
                uniq = {id(sets[i]): sets[i] for i in block}
                inter = (
                    next(iter(uniq.values()))
                    if len(uniq) == 1
                    else intersect_many(list(uniq.values()))
                )
                exclude = sum(1 for a in assigned if contains(inter, a))
                card_cache[key] = len(inter) - exclude
            return card_cache[key]

        total = 0
        for partition in self._partitions:
            term = partition_coefficient(partition)
            for block in partition:
                if term == 0:
                    break
                term *= block_card(block)
            total += term
        return total

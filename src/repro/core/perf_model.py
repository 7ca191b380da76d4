"""The accurate performance prediction model (§IV-C).

For a configuration compiled to a plan, the model estimates the cost of
the generated nested-loop program:

    cost_i = l_i · (1 - f_i) · (c_i + cost_{i+1})   for i < n
    cost_n = l_n · (1 - f_n)

* ``l_i`` — expected loop size: the cardinality estimate of the loop's
  candidate set, |V|·p1·p2^(x-1) for an intersection of x
  neighbourhoods (|V| when the loop has no dependencies);
* ``c_i`` — intersection cost: sorted-merge intersections cost the sum
  of the input cardinalities, accumulated pairwise
  (|N(a)|+|N(b)| for the first, |partial|+|N(c)| for the next, …);
* ``f_i`` — probability that the restrictions checked in loop i filter
  the current partial embedding, computed **exactly** over the n!
  relative orderings of vertex ids (the paper's procedure): each
  restriction filters the orderings that survived the previous ones.

The model only needs |V|, |E| and the triangle count of the data graph
(:class:`repro.graph.stats.GraphStats`), which is what makes it cheap
enough to rank thousands of configurations (Table III).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import factorial

from repro.core.config import Configuration, ExecutionPlan, compile_plan
from repro.core.restrictions import (
    NonUniformOvercountError,
    SymmetryGroup,
    rank_order_bits,
    symmetry_group,
)
from repro.core.schedule import intersection_free_suffix_length
from repro.graph.stats import GraphStats

#: relative weight of the "other overhead" o_i term; the paper sets the
#: per-iteration bookkeeping cost to a constant.
LOOP_OVERHEAD = 1.0

def filter_probabilities(plan: ExecutionPlan) -> list[float]:
    """f_i for every loop, from exact enumeration of relative orderings.

    Restrictions are applied in loop order; each filters only the
    orderings that survived all earlier loops, exactly as the generated
    code would short-circuit.  Orderings are rows of the n! rank matrix
    (row r gives the rank of the vertex bound at each schedule position),
    held as bitsets (:func:`~repro.core.restrictions.rank_order_bits`).
    """
    return _filter_probabilities(plan.n, _depth_orders(plan))


def _depth_orders(plan: ExecutionPlan) -> frozenset[tuple[int, int]]:
    """The plan's loop bounds as depth pairs ``(a, b)``: the id bound at
    depth ``a`` must exceed the id bound at depth ``b``."""
    return frozenset(
        [(d, j) for d, js in enumerate(plan.lower) for j in js]
        + [(j, d) for d, js in enumerate(plan.upper) for j in js]
    )


def _filter_probabilities(n: int, orders) -> list[float]:
    """f_i for ``n`` loops bounded by the depth pairs ``orders`` (see
    :func:`_depth_orders`); a pair is checked at its deeper depth."""
    bits = rank_order_bits(n)
    alive = (1 << factorial(n)) - 1
    passing = [alive] * n
    for a, b in orders:
        passing[max(a, b)] &= bits[a][b]
    fs: list[float] = []
    for depth in range(n):
        before = alive.bit_count()
        if before == 0:
            fs.append(0.0)
            continue
        mask = alive & passing[depth]
        after = mask.bit_count()
        fs.append((before - after) / before)
        alive = mask
    return fs


def loop_size_estimates(plan: ExecutionPlan, stats: GraphStats) -> list[float]:
    """l_i per loop: |V| · p1 · p2^(x-1) with x = #dependencies."""
    return [stats.expected_candidate_size(len(deps)) for deps in plan.deps]


def intersection_cost_estimates(plan: ExecutionPlan, stats: GraphStats) -> list[float]:
    """c_i per loop: accumulated pairwise sorted-merge costs.

    Intersecting x sorted neighbourhoods of expected size d
    (d = |V|·p1) pairwise: (d + d) + (|∩2| + d) + … — each step adds the
    running intersection's expected size plus one more neighbourhood.
    Loops with ≤ 1 dependency perform no intersection (a neighbourhood
    is used directly), so c_i = 0.
    """
    return _intersection_costs([len(deps) for deps in plan.deps], stats)


def _intersection_costs(dep_counts, stats: GraphStats) -> list[float]:
    costs: list[float] = []
    for x in dep_counts:
        if x <= 1:
            costs.append(0.0)
            continue
        total = 0.0
        for t in range(1, x):
            total += stats.expected_candidate_size(t) + stats.avg_degree
        costs.append(total)
    return costs


@dataclass(frozen=True)
class CostBreakdown:
    """Per-loop factors and the resulting nested cost (for reporting)."""

    loop_sizes: tuple[float, ...]
    filter_probs: tuple[float, ...]
    intersection_costs: tuple[float, ...]
    total: float


def estimate_cost(plan: ExecutionPlan, stats: GraphStats) -> float:
    """The paper's recursion, evaluated bottom-up."""
    return cost_breakdown(plan, stats).total


def cost_breakdown(plan: ExecutionPlan, stats: GraphStats) -> CostBreakdown:
    ls = loop_size_estimates(plan, stats)
    fs = filter_probabilities(plan)
    cs = intersection_cost_estimates(plan, stats)
    return CostBreakdown(tuple(ls), tuple(fs), tuple(cs), _nested_cost(plan.iep_k, ls, fs, cs))


def _nested_cost(iep_k: int, ls, fs, cs) -> float:
    n = len(ls)
    n_loops = n - iep_k
    if iep_k > 0:
        # The k inner loops are replaced by one IEP evaluation whose cost
        # is the block-intersection work: every inner vertex's candidate
        # set must be materialised (its c_i), plus Bell(k)-bounded
        # combination work proportional to the candidate sizes.
        iep_eval = 0.0
        for i in range(n_loops, n):
            iep_eval += cs[i] + ls[i] + LOOP_OVERHEAD
        cost = iep_eval
        for i in range(n_loops - 1, -1, -1):
            cost = ls[i] * (1.0 - fs[i]) * (cs[i] + LOOP_OVERHEAD + cost)
    else:
        cost = ls[n - 1] * (1.0 - fs[n - 1])
        for i in range(n - 2, -1, -1):
            cost = ls[i] * (1.0 - fs[i]) * (cs[i] + LOOP_OVERHEAD + cost)
    return float(cost)


def _memoised_filters(memo: dict, n: int, orders: frozenset[tuple[int, int]]) -> list[float]:
    """:func:`_filter_probabilities`, memoised by loop count and bounds."""
    key = (n, orders)
    fs = memo.get(key)
    if fs is None:
        fs = memo[key] = _filter_probabilities(n, orders)
    return fs


class CostMemo:
    """:func:`estimate_cost` for the many plans of one planning call.

    Plans of one pattern share few distinct shapes: the loop-size and
    intersection estimates depend only on each loop's dependency count,
    the filter probabilities only on the loops' bounds.
    The memo computes each shape's factors once and yields exactly
    ``estimate_cost``'s value; it lives only as long as the call that
    made it.
    """

    def __init__(self, stats: GraphStats):
        self.stats = stats
        self._sizes: dict[tuple[int, ...], tuple[list[float], list[float]]] = {}
        self._filters: dict[tuple, list[float]] = {}

    def cost(self, plan: ExecutionPlan, fs: list[float]) -> float:
        """The plan's cost, given its filter probabilities ``fs``."""
        ls, cs = self._loop_terms(tuple(len(deps) for deps in plan.deps))
        return _nested_cost(plan.iep_k, ls, fs, cs)

    def order_cost(
        self, dep_counts: tuple[int, ...], orders: frozenset[tuple[int, int]]
    ) -> float:
        """What :meth:`cost` returns for a plan without IEP whose loops
        have ``dep_counts`` dependencies and whose bounds are the depth
        pairs ``orders`` (``(a, b)``: the id bound at depth ``a`` exceeds
        the one at depth ``b``) — for planners that price configurations
        before compiling one."""
        ls, cs = self._loop_terms(dep_counts)
        fs = _memoised_filters(self._filters, len(dep_counts), orders)
        return _nested_cost(0, ls, fs, cs)

    def _loop_terms(self, dep_counts: tuple[int, ...]) -> tuple[list[float], list[float]]:
        """(l_i, c_i) per loop, memoised by the dependency counts."""
        terms = self._sizes.get(dep_counts)
        if terms is None:
            terms = self._sizes[dep_counts] = (
                [self.stats.expected_candidate_size(x) for x in dep_counts],
                _intersection_costs(dep_counts, self.stats),
            )
        return terms


class ConfigurationSet:
    """Configurations plus the graph-independent half of ranking them.

    A configuration's compiled plan (with its largest feasible IEP
    suffix) and its filter probabilities depend on the pattern alone;
    only the loop-size and intersection terms read the data graph's
    statistics.  The set compiles and scores each configuration once
    per ``iep_k`` and keeps the result, so ranking it again for another
    graph evaluates only the stats-dependent terms.  ``auts`` is the
    automorphism group of the configurations' pattern (for the IEP
    overcount).  Thread-safe: concurrent rankings of one set compile it
    once.
    """

    def __init__(self, configurations, *, auts: list | None = None):
        self.configurations = tuple(configurations)
        self._auts = auts
        #: filter probabilities by (n, depth orders), shared by every iep_k
        self._filters: dict[tuple, list[float]] = {}
        self._scored: dict[int, tuple[tuple[ExecutionPlan, ...], tuple[list[float], ...]]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.configurations)

    def __iter__(self):
        return iter(self.configurations)

    def scored(self, iep_k: int) -> tuple[tuple[ExecutionPlan, ...], tuple[list[float], ...]]:
        """(plan, filter probabilities) per configuration, in order."""
        with self._lock:
            scored = self._scored.get(iep_k)
            if scored is None:
                groups: dict = {}
                plans = []
                for config in self.configurations:
                    group = None
                    if iep_k > 0:
                        group = groups.get(config.pattern)
                        if group is None:
                            group = groups[config.pattern] = symmetry_group(
                                config.pattern, self._auts
                            )
                    plans.append(_compile_best_effort(config, iep_k, group))
                filters = tuple(
                    _memoised_filters(self._filters, p.n, _depth_orders(p)) for p in plans
                )
                scored = self._scored[iep_k] = (tuple(plans), filters)
            return scored


@dataclass(frozen=True)
class RankedConfiguration:
    config: Configuration
    plan: ExecutionPlan
    predicted_cost: float


class PerformanceModel:
    """Ranks configurations for a given data-graph statistics summary."""

    def __init__(self, stats: GraphStats):
        self.stats = stats

    def rank(
        self,
        configurations,
        *,
        iep_k: int = 0,
        auts: list | None = None,
    ) -> list[RankedConfiguration]:
        """Score every configuration, cheapest first.

        ``iep_k`` > 0 compiles each plan in IEP mode *when the schedule
        supports it* (its realisable independent suffix is long enough);
        schedules that do not support the requested k are scored without
        IEP — mirroring GraphPi, which only applies IEP to configurations
        of the right shape.  ``auts`` passes the planning call's
        automorphism group (of the configurations' one pattern) to the
        IEP overcount; without it each pattern's group is enumerated once
        per call.

        ``configurations`` may be a :class:`ConfigurationSet`, whose
        compiled plans and filter probabilities carry over between calls
        (its own ``auts`` then applies); any other iterable is scored
        through a set that lives only for this call.  Ties keep the
        input order.
        """
        if not isinstance(configurations, ConfigurationSet):
            configurations = ConfigurationSet(configurations, auts=auts)
        plans, filters = configurations.scored(iep_k)
        memo = CostMemo(self.stats)
        ranked = [
            RankedConfiguration(config, plan, memo.cost(plan, fs))
            for config, plan, fs in zip(configurations, plans, filters)
        ]
        ranked.sort(key=lambda r: r.predicted_cost)
        return ranked

    def choose(self, configurations, *, iep_k: int = 0) -> RankedConfiguration:
        ranked = self.rank(configurations, iep_k=iep_k)
        if not ranked:
            raise ValueError("no configurations to choose from")
        return ranked[0]


def _compile_best_effort(
    config: Configuration, iep_k: int, group: SymmetryGroup | None = None
) -> ExecutionPlan:
    """Compile with the largest feasible IEP suffix ≤ ``iep_k``.

    Shrinks k when the schedule's independent suffix is shorter, and
    again when dropped inner↔inner restrictions admit no uniform
    overcount divisor (k = 1 never drops restrictions, so the ladder
    always terminates on a correct plan).  ``group`` is the pattern's
    automorphism group, for the overcount.
    """
    if iep_k > 0:
        realisable = intersection_free_suffix_length(config.pattern, config.schedule)
        k = min(iep_k, realisable)
        while k > 0:
            try:
                return compile_plan(config, iep_k=k, auts=group)
            except NonUniformOvercountError:
                k -= 1
    return config.compile()

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
enough to rank thousands of configurations (Table III).  Ranking
(:meth:`PerformanceModel.rank`) never compiles a configuration: each is
priced from its shape — its loops' dependency counts, the depth pairs
its kept restrictions compare and its largest feasible IEP suffix —
which yields exactly :func:`estimate_cost` of the plan it would compile
to.  Every planning mode ranks through it and compiles only the winner.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial

from repro.core.config import Configuration, ExecutionPlan, compile_plan
from repro.core.restrictions import (
    NonUniformOvercountError,
    SymmetryGroup,
    iep_overcount_multiplicity,
    rank_order_bits,
    symmetry_group,
)
from repro.core.schedule import intersection_free_suffix_length, schedule_dependencies
from repro.graph.stats import GraphStats
from repro.pattern.pattern import Pattern

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


class ConfigurationSet:
    """Configurations plus the graph-independent half of pricing them.

    A configuration's price needs three things: its loops' dependency
    counts, the depth pairs compared by the restrictions it keeps, and
    its largest feasible IEP suffix.  None of them reads the data graph,
    so the set works them out once per requested ``iep_k`` and keeps
    them; ranking it again for another graph evaluates only the
    stats-dependent loop terms.  Pricing compiles nothing:
    :meth:`compile` lowers one configuration, normally the winner, with
    the mode's compile function ``compile(config, iep_k=, auts=)``.
    ``auts`` is the group the configurations' restriction sets break,
    for the IEP overcount (``None``: each pattern's full automorphism
    group).  Thread-safe: concurrent rankings of one set work its shapes
    out once.
    """

    def __init__(self, configurations, *, auts: list | None = None, compile=compile_plan):
        self.configurations = tuple(configurations)
        self._auts = auts
        self._compile = compile
        self._groups: dict[Pattern, SymmetryGroup] = {}
        #: (pattern, schedule) -> (dependency counts, realisable IEP suffix)
        self._schedules: dict[tuple, tuple[tuple[int, ...], int]] = {}
        #: filter probabilities by (n, depth orders), shared by every iep_k
        self._filters: dict[tuple, list[float]] = {}
        #: (pattern, kept restrictions) -> whether their overcount is uniform
        self._uniform: dict[tuple, bool] = {}
        self._shapes: dict[int, tuple[tuple[tuple[int, ...], int, list[float]], ...]] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self.configurations)

    def __iter__(self):
        return iter(self.configurations)

    def _group(self, pattern: Pattern) -> SymmetryGroup:
        group = self._groups.get(pattern)
        if group is None:
            group = self._groups[pattern] = symmetry_group(pattern, self._auts)
        return group

    def _schedule(self, config: Configuration) -> tuple[tuple[int, ...], int]:
        key = (config.pattern, config.schedule)
        shape = self._schedules.get(key)
        if shape is None:
            shape = self._schedules[key] = (
                tuple(len(d) for d in schedule_dependencies(*key)),
                intersection_free_suffix_length(*key),
            )
        return shape

    def _kept(self, config: Configuration, iep_k: int) -> tuple[int, frozenset]:
        """(k, the depth pairs of the restrictions the k-suffix keeps)
        for the largest feasible IEP suffix k ≤ ``iep_k``.

        k starts at the suffix the schedule realises and steps down
        while the inner↔inner restrictions it drops leave a non-uniform
        overcount (k = 1 drops nothing, so the ladder stops on a correct
        plan); uniformity is memoised by kept set.
        """
        restrictions = list(config.restrictions)
        position = {v: i for i, v in enumerate(config.schedule)}
        pairs = [(position[g], position[s]) for g, s in restrictions]
        with self._lock:
            k = min(max(iep_k, 0), self._schedule(config)[1])
            while True:
                inner = len(position) - k
                kept = [i for i, pair in enumerate(pairs) if min(pair) < inner]
                if len(kept) == len(pairs) or self._is_uniform(
                    config.pattern, frozenset(restrictions[i] for i in kept)
                ):
                    return k, frozenset(pairs[i] for i in kept)
                k -= 1

    def _is_uniform(self, pattern: Pattern, kept: frozenset) -> bool:
        key = (pattern, kept)
        uniform = self._uniform.get(key)
        if uniform is None:
            try:
                iep_overcount_multiplicity(pattern, kept, auts=self._group(pattern))
                uniform = True
            except NonUniformOvercountError:
                uniform = False
            self._uniform[key] = uniform
        return uniform

    def shapes(self, iep_k: int) -> tuple[tuple[tuple[int, ...], int, list[float]], ...]:
        """(dependency counts, feasible IEP k, filter probabilities of the
        kept restrictions) per configuration, in order."""
        with self._lock:
            shapes = self._shapes.get(iep_k)
            if shapes is None:
                rows = []
                for config in self.configurations:
                    k, orders = self._kept(config, iep_k)
                    fs = _memoised_filters(self._filters, len(config.schedule), orders)
                    rows.append((self._schedule(config)[0], k, fs))
                shapes = self._shapes[iep_k] = tuple(rows)
            return shapes

    def compile(self, config: Configuration, iep_k: int = 0):
        """``config`` compiled with its largest feasible IEP suffix ≤ ``iep_k``."""
        k = self._kept(config, iep_k)[0]
        return self._compile(config, iep_k=k, auts=self._group(config.pattern) if k else None)


@dataclass(frozen=True)
class RankedConfiguration:
    """A priced configuration; ``plan`` compiles it on first read."""

    config: Configuration
    iep_k: int
    predicted_cost: float
    source: ConfigurationSet = field(repr=False, compare=False)

    @cached_property
    def plan(self):
        return self.source.compile(self.config, self.iep_k)


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
        scale=None,
    ) -> list[RankedConfiguration]:
        """Price every configuration, cheapest first, compiling none.

        ``iep_k`` > 0 prices each configuration with the largest IEP
        suffix ≤ ``iep_k`` it supports (see :class:`ConfigurationSet`);
        schedules without one are priced without IEP — mirroring
        GraphPi, which only applies IEP to configurations of the right
        shape.  ``scale(schedule)``, when given, multiplies a
        configuration's cost (the labeled planner's label frequencies).

        ``configurations`` may be a :class:`ConfigurationSet`, whose
        shapes carry over between calls (its own group then applies);
        any other iterable is priced through a set that lives only for
        this call, with ``auts`` as its group.  Ties keep the input order.
        """
        if not isinstance(configurations, ConfigurationSet):
            configurations = ConfigurationSet(configurations, auts=auts)
        terms: dict[tuple[int, ...], tuple[list[float], list[float]]] = {}
        factors: dict = {}
        ranked = []
        for config, (dep_counts, k, fs) in zip(configurations, configurations.shapes(iep_k)):
            loop = terms.get(dep_counts)
            if loop is None:
                loop = terms[dep_counts] = (
                    [self.stats.expected_candidate_size(x) for x in dep_counts],
                    _intersection_costs(dep_counts, self.stats),
                )
            cost = _nested_cost(k, loop[0], fs, loop[1])
            if scale is not None:
                factor = factors.get(config.schedule)
                if factor is None:
                    factor = factors[config.schedule] = scale(config.schedule)
                cost *= factor
            ranked.append(RankedConfiguration(config, k, cost, configurations))
        ranked.sort(key=lambda r: r.predicted_cost)
        return ranked

    def choose(self, configurations, *, iep_k: int = 0) -> RankedConfiguration:
        ranked = self.rank(configurations, iep_k=iep_k)
        if not ranked:
            raise ValueError("no configurations to choose from")
        return ranked[0]

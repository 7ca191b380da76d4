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
  The k innermost loops an IEP suffix absorbs are one evaluation over
  their candidate sets, each cut by its outer↔inner bounds, so their
  f_i shrink those sets too.

It needs |V|, |E| and the triangle count of the data graph
(:class:`repro.graph.stats.GraphStats`), which is what makes it cheap
enough to rank thousands of configurations (Table III).  Ranking
(:meth:`PerformanceModel.rank`) never compiles a configuration: each is
priced from its shape — its loops' dependency counts, the restrictions
it keeps and its largest feasible IEP suffix — which yields exactly
:func:`estimate_cost` of the plan it would compile to.  Every planning
mode ranks through it and compiles only the winner.

The model prices a restriction over uniformly random id orders, so a
restriction set and its mirror, or two schedules that differ only in
which depth reads a hub's row, cost exactly the same.  On a graph whose
ids follow degree they do not: the higher-id endpoint of an edge has
the longer row, and a vertex the restrictions put below every other one
of a pattern has a short row.  The configurations tied at the cheapest
price are therefore ordered by a second price,
:func:`degree_order_cost`: the same recursion with each row's length in
``l_i`` and its share of ``c_i`` scaled by the mean degree of its
owner's place in the id order (:func:`_side_factor`, from the graph's
degree-order statistic).  The transitive order of the kept restrictions
places the owner among the vertices visible when the row is read
(:func:`_row_layout`); an IEP-absorbed depth sees its outer↔inner
bounds too.  With ids that do not follow degree every factor is 1, the
second price equals the first, and the ranking is the paper's; it only
ever reorders exact ties, so a weak id–degree correlation cannot
overturn a configuration the paper's model prefers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from math import exp, factorial, lgamma

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

#: tie orders a ConfigurationSet keeps (one per iep_k and statistics)
TIE_ORDERS = 64

def filter_probabilities(plan: ExecutionPlan) -> list[float]:
    """f_i for every loop, from exact enumeration of relative orderings.

    Restrictions are applied in loop order; each filters only the
    orderings that survived all earlier loops, exactly as the generated
    code would short-circuit, and an IEP-absorbed depth's outer↔inner
    bounds filter in the same order (its inner↔inner restrictions are
    dropped, so none filters there).  Orderings are rows of the n! rank
    matrix (row r gives the rank of each pattern vertex), held as
    bitsets (:func:`~repro.core.restrictions.rank_order_bits`); a count
    depends only on the kept restrictions and the vertices bound, so
    the schedules of one restriction set share it.
    """
    kept, layout = _plan_shape(plan)
    return _filter_probabilities(kept, layout, {}, plan.n)


def _plan_shape(plan: ExecutionPlan) -> tuple[frozenset, tuple]:
    """The restrictions ``plan`` keeps, as vertex pairs ``(a, b)``:
    ``id(a) > id(b)``, and its :func:`_row_layout`."""
    schedule = plan.schedule
    kept = frozenset(
        [(schedule[d], schedule[j]) for d, js in enumerate(plan.lower) for j in js]
        + [(schedule[j], schedule[d]) for d, js in enumerate(plan.upper) for j in js]
    )
    return kept, _row_layout(schedule, plan.deps, plan.n_loops)


def _filter_probabilities(kept: frozenset, layout, memo: dict, n: int) -> list[float]:
    """f_i per depth of ``layout``: the share of the orderings the
    restrictions among the earlier vertices leave that the depth's own
    vertex's restrictions with them filter out.

    ``memo`` keeps, by (``kept``, vertex bitmask), the n!-bit set of
    relative id orders that satisfy the restrictions of ``kept`` among
    those vertices, and its size; a depth extends its earlier vertices'
    set by its own vertex's restrictions with them (``memo[kept]``:
    :func:`_pairs_by_vertex`)."""
    rows = (1 << factorial(n)) - 1
    alive = factorial(n)
    fs = []
    by_vertex = None
    for earlier, visible, _, _ in layout:
        key = (kept, visible)
        entry = memo.get(key)
        if entry is None:
            if by_vertex is None:
                by_vertex = memo.get(kept)
                if by_vertex is None:
                    by_vertex = memo[kept] = _pairs_by_vertex(kept, n)
            for other, pair in by_vertex[(visible ^ earlier).bit_length() - 1]:
                if earlier >> other & 1:
                    rows &= pair
            entry = memo[key] = (rows, rows.bit_count())
        rows, count = entry
        fs.append((alive - count) / alive if alive else 0.0)
        alive = count
    return fs


def _pairs_by_vertex(kept, n: int) -> list[list[tuple[int, int]]]:
    """Per vertex, ``(other vertex, the orders that satisfy their
    restriction)`` for each restriction of ``kept`` naming it."""
    bits = rank_order_bits(n)
    by_vertex: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b in kept:
        by_vertex[a].append((b, bits[a][b]))
        by_vertex[b].append((a, bits[a][b]))
    return by_vertex


def row_sides(plan: ExecutionPlan) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per depth, the side ``(s, c)`` (see :func:`_depth_sides`) of
    each row the depth reads, in dependency order."""
    kept, layout = _plan_shape(plan)
    order = _id_order(kept, plan.n)
    return tuple(_depth_sides(among, owners, order) for _, _, among, owners in layout)


def _id_order(kept, n: int) -> tuple[list[int], list[int], list[int]]:
    """The transitive order the restrictions ``kept`` (vertex pairs
    ``(a, b)``: ``id(a) > id(b)``) impose on ``n`` pattern vertices:
    per vertex, bitmasks of the vertices below it, above it, and linked
    to it by a chain of restrictions (itself included)."""
    below, above, linked = [0] * n, [0] * n, [1 << x for x in range(n)]
    for a, b in kept:
        down, up = below[b] | (1 << b), above[a] | (1 << a)
        for x in range(n):
            if up >> x & 1:
                below[x] |= down
            if down >> x & 1:
                above[x] |= up
        group = linked[a] | linked[b]
        for x in range(n):
            if group >> x & 1:
                linked[x] = group
    return below, above, linked


#: the side of a row the order says nothing about
NO_SIDE = (0, 1)


def _row_layout(schedule, deps, n_loops: int) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
    """Per depth, ``(earlier, visible, placing, row owners)``: bitmasks
    of the vertices bound before the depth's candidate and with it (in
    loop order, IEP-absorbed depths included: what the filter
    probabilities condition on), of the vertices the depth's rows are
    placed among, and the vertex of each row (-1: a row with no side
    whatever the order).

    A depth's rows are placed among the vertices the earlier loops bound
    and its own: the candidate is drawn from the rows, so the order
    between the two selects the part of a row it keeps.  An IEP-absorbed
    depth's candidate set is evaluated on its own, given the outer
    assignment, so its rows are placed among every outer loop's vertex
    and its own, and its outer↔inner bounds place them too.  A row's
    owner is placed by the transitive order of all kept restrictions
    (:func:`_id_order`).  A row whose owner is bound with no dependency
    (the root) and has not been read yet belongs to a uniformly drawn
    vertex, not an edge endpoint, and has no side.
    """
    earlier = outer = read = 0
    layout = []
    for depth, cols in enumerate(deps):
        own = 1 << schedule[depth]
        layout.append(
            (
                earlier,
                earlier | own,
                outer | own,
                tuple(schedule[j] if deps[j] or read >> j & 1 else -1 for j in cols),
            )
        )
        for j in cols:
            read |= 1 << j
        earlier |= own
        if depth < n_loops:
            outer |= own
    return tuple(layout)


def _depth_sides(visible: int, owners, order) -> tuple[tuple[int, int], ...]:
    """The side ``(s, c)`` of each row of one depth: among the visible
    vertices (see :func:`_row_layout`), ``order`` links the row's owner
    to ``c - 1`` others (``c`` = 1: no side), and ``s / 2`` of them are
    expected below it, counting a linked vertex the order leaves open
    as half."""
    below, above, linked = order
    return tuple(
        ((below[v] & visible).bit_count() - (above[v] & visible).bit_count() + c - 1, c)
        if v >= 0 and (c := (linked[v] & visible).bit_count()) > 1
        else NO_SIDE
        for v in owners
    )


def _side_factor(gamma: float, side: tuple[int, int]) -> float:
    """How much longer than an average endpoint's row a row on ``side``
    is expected to be, with degree ∝ u^γ along the endpoint quantile u
    of the id order (:attr:`GraphStats.degree_order_exponent`).

    The owner is taken as the order statistic of its ``c`` linked
    endpoints at its expected position, u ~ Beta(s/2 + 1, c - s/2), so
    the factor is (1+γ)·E[u^γ]: 2(1+γ)/(2+γ) above one other endpoint,
    2/(2+γ) below it, more extreme the more endpoints the order places
    on one side, and 1 when γ = 0 or the row has no side.  A negative γ
    reads the order from the top, so a graph and its id-reversed twin
    price a configuration and its mirror alike.
    """
    s, c = side
    if c == 1 or gamma == 0.0:
        return 1.0
    if gamma < 0.0:
        # ids descend with degree: the same law on the reversed order
        gamma, s = -gamma, 2 * (c - 1) - s
    a, b = s / 2 + 1, c - s / 2
    return (1.0 + gamma) * exp(
        lgamma(a + gamma) + lgamma(a + b) - lgamma(a) - lgamma(a + b + gamma)
    )


def _candidate_sizes(stats: GraphStats, x: int) -> list[float]:
    """E[|∩ of t rows|] for t = 0..x, then the average degree (the row
    each pairwise intersection step adds)."""
    return [stats.expected_candidate_size(t) for t in range(x + 1)] + [stats.avg_degree]


def _scaled_terms(factors: list[float], sizes: list[float]) -> tuple[float, float]:
    """``(l_i, c_i)`` of a depth whose rows are ``factors`` times an
    average endpoint's row (``sizes``: :func:`_candidate_sizes`, at
    least as long as the rows need).

    Intersecting x sorted rows pairwise costs (|r1| + |r2|) + (|∩2| +
    |r3|) + …: each step adds the running intersection's expected size
    plus one more row, and a scaled row scales every intersection it
    takes part in.  A depth with ≤ 1 row intersects nothing (c_i = 0);
    one with none loops over all of V.
    """
    running = 1.0
    cost = 0.0
    average = sizes[-1]
    for t in range(1, len(factors)):
        running *= factors[t - 1]
        cost += sizes[t] * running + average * factors[t]
    if factors:
        running *= factors[-1]
    return sizes[len(factors)] * running, cost


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


def degree_order_cost(plan: ExecutionPlan, stats: GraphStats) -> float:
    """:func:`estimate_cost` with every row priced by its owner's side
    of the id order (:func:`row_sides`, :func:`_side_factor`): the price
    :meth:`PerformanceModel.rank` orders exact ties by.  Equal to
    :func:`estimate_cost` when ids do not follow degree (γ = 0)."""
    gamma = stats.degree_order_exponent
    sides = row_sides(plan)
    sizes = _candidate_sizes(stats, max(map(len, sides)))
    terms = [_scaled_terms([_side_factor(gamma, side) for side in row], sizes) for row in sides]
    return _nested_cost(
        plan.iep_k, [l for l, _ in terms], filter_probabilities(plan), [c for _, c in terms]
    )


def _nested_cost(iep_k: int, ls, fs, cs) -> float:
    n = len(ls)
    n_loops = n - iep_k
    if iep_k > 0:
        # The k inner loops are replaced by one IEP evaluation whose cost
        # is the block-intersection work: every inner vertex's candidate
        # set must be materialised (its c_i), plus Bell(k)-bounded
        # combination work proportional to the candidate sizes.  An
        # outer↔inner bound clips the rows to its window before they
        # are intersected, so it shrinks both by its filter share.
        cost = 0.0
        for i in range(n_loops, n):
            cost += (1.0 - fs[i]) * (cs[i] + ls[i]) + LOOP_OVERHEAD
    else:
        n_loops -= 1
        cost = ls[n_loops] * (1.0 - fs[n_loops])
    for i in range(n_loops - 1, -1, -1):
        cost = ls[i] * (1.0 - fs[i]) * (cs[i] + LOOP_OVERHEAD + cost)
    return float(cost)


class _ScheduleShape:
    """What pricing needs of one schedule: its dependency columns and
    counts, the realisable IEP suffix, the vertices of each IEP suffix,
    and the row layout (:func:`_row_layout`) per executed loop count."""

    __slots__ = ("schedule", "deps", "dep_counts", "suffix", "tails", "layouts")

    def __init__(self, pattern: Pattern, schedule):
        self.schedule = schedule
        self.deps = schedule_dependencies(pattern, schedule)
        self.dep_counts = tuple(len(d) for d in self.deps)
        self.suffix = intersection_free_suffix_length(pattern, schedule)
        n = len(schedule)
        self.tails = [sum(1 << v for v in schedule[n - k :]) for k in range(n)]
        self.layouts: dict[int, tuple] = {}

    def layout(self, n_loops: int) -> tuple:
        layout = self.layouts.get(n_loops)
        if layout is None:
            layout = self.layouts[n_loops] = _row_layout(self.schedule, self.deps, n_loops)
        return layout


class ConfigurationSet:
    """Configurations plus the graph-independent half of pricing them.

    A configuration's price needs three things: its loops' dependency
    counts, the restrictions it keeps, and its largest feasible IEP
    suffix; its degree-order price (:meth:`sides`) also needs each row's
    side of the order those restrictions impose.  None of them reads the
    data graph, so the set works them out once per requested ``iep_k``
    (the sides: once per configuration asked for) and keeps them;
    ranking it again for another graph evaluates only the
    stats-dependent loop terms.  Filter probabilities and sides are
    memoised by kept restrictions and the vertices a depth sees, so the
    schedules of one restriction set share them.  Pricing compiles
    nothing: :meth:`compile` lowers one configuration, normally the
    winner, with the mode's compile function ``compile(config, iep_k=,
    auts=)``.  ``auts`` is the group the configurations' restriction
    sets break, for the IEP overcount (``None``: each pattern's full
    automorphism group).  Thread-safe: concurrent rankings of one set
    work its shapes out once.
    """

    def __init__(self, configurations, *, auts: list | None = None, compile=compile_plan):
        self.configurations = tuple(configurations)
        self._auts = auts
        self._compile = compile
        self._groups: dict[Pattern, SymmetryGroup] = {}
        #: (pattern, schedule) -> its _ScheduleShape
        self._schedules: dict[tuple, _ScheduleShape] = {}
        #: (restrictions, inner vertices) -> the restrictions an IEP
        #: suffix over them keeps, or None when their overcount is not
        #: uniform
        self._suffix_kept: dict[tuple, frozenset | None] = {}
        #: the orders satisfying kept restrictions among vertices, and
        #: their count, shared by every schedule and iep_k (see
        #: _filter_probabilities)
        self._orderings: dict = {}
        #: (kept restrictions, depth layout) -> its row sides' number
        self._depths: dict[tuple, int] = {}
        #: the id order of each kept restriction set (see _id_order)
        self._orders: dict[frozenset, tuple] = {}
        #: distinct depth row sides, and their numbers
        self.depth_sides: list[tuple] = []
        self._depth_numbers: dict[tuple, int] = {}
        #: (iep_k, configuration number) -> its depth row side numbers
        self._config_sides: dict[tuple[int, int], tuple[int, ...]] = {}
        #: kept restrictions -> bitmask of the vertices they name
        self._named: dict[frozenset, int] = {}
        #: recent tie orders, oldest first (see tie_order)
        self._tie_orders: dict[tuple, list[int]] = {}
        self._shapes: dict[int, tuple[tuple, ...]] = {}
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

    def _schedule(self, config: Configuration) -> _ScheduleShape:
        key = (config.pattern, config.schedule)
        shape = self._schedules.get(key)
        if shape is None:
            shape = self._schedules[key] = _ScheduleShape(*key)
        return shape

    def _kept(self, config: Configuration, iep_k: int) -> tuple[int, frozenset]:
        """(k, the restrictions the k-suffix keeps) for the largest
        feasible IEP suffix k ≤ ``iep_k``.

        k starts at the suffix the schedule realises and steps down
        while the inner↔inner restrictions it drops leave a non-uniform
        overcount; the kept set and its uniformity are memoised by the
        restrictions and the suffix's vertices.  A k = 1 suffix drops
        no restriction and has overcount 1, so it is the innermost loop:
        the ladder ends on k = 0.
        """
        with self._lock:
            shape = self._schedule(config)
            k = min(max(iep_k, 0), shape.suffix)
            while k > 1:
                key = (config.restrictions, shape.tails[k])
                if key in self._suffix_kept:
                    kept = self._suffix_kept[key]
                else:
                    inner = shape.tails[k]
                    kept = frozenset(
                        (g, s) for g, s in config.restrictions if not inner >> g & inner >> s & 1
                    )
                    if len(kept) == len(config.restrictions):
                        kept = config.restrictions
                    elif not self._is_uniform(config.pattern, kept):
                        kept = None
                    self._suffix_kept[key] = kept
                if kept is not None:
                    return k, kept
                k -= 1
            return 0, config.restrictions

    def _is_uniform(self, pattern: Pattern, kept: frozenset) -> bool:
        try:
            iep_overcount_multiplicity(pattern, kept, auts=self._group(pattern))
        except NonUniformOvercountError:
            return False
        return True

    def shapes(self, iep_k: int) -> tuple[tuple, ...]:
        """(dependency counts, feasible IEP k, filter probabilities, kept
        restrictions, row layout) per configuration, in order."""
        with self._lock:
            shapes = self._shapes.get(iep_k)
            if shapes is None:
                rows = []
                for config in self.configurations:
                    k, kept = self._kept(config, iep_k)
                    shape = self._schedule(config)
                    n = len(shape.schedule)
                    layout = shape.layout(n - k)
                    fs = _filter_probabilities(kept, layout, self._orderings, n)
                    rows.append((shape.dep_counts, k, fs, kept, layout))
                shapes = self._shapes[iep_k] = tuple(rows)
            return shapes

    def sides(self, iep_k: int, index: int) -> tuple[int, ...]:
        """The row sides (:func:`row_sides`) of configuration ``index``
        priced with ``iep_k``, as one number per depth in
        :attr:`depth_sides`, from its kept restrictions and row layout
        in :meth:`shapes`.  Memoised, and shared between configurations
        by kept restrictions and depth like the filter probabilities, so
        re-ranking on another graph works out no side again."""
        with self._lock:
            sides = self._config_sides.get((iep_k, index))
            if sides is None:
                _, _, _, kept, layout = self.shapes(iep_k)[index]
                numbers = []
                for depth in layout:
                    key = (kept, depth)
                    number = self._depths.get(key)
                    if number is None:
                        order = self._orders.get(kept)
                        if order is None:
                            order = self._orders[kept] = _id_order(kept, len(layout))
                        row = _depth_sides(depth[2], depth[3], order)
                        number = self._depth_numbers.get(row)
                        if number is None:
                            number = self._depth_numbers[row] = len(self.depth_sides)
                            self.depth_sides.append(row)
                        self._depths[key] = number
                    numbers.append(number)
                sides = self._config_sides[(iep_k, index)] = tuple(numbers)
            return sides

    def sided(self, iep_k: int, index: int) -> bool:
        """Whether a kept restriction of configuration ``index`` (priced
        with ``iep_k``) names a vertex whose row it reads after the root's
        first row: without one every row has no side."""
        _, _, _, kept, layout = self.shapes(iep_k)[index]
        named = self._named.get(kept)
        if named is None:
            named = self._named[kept] = sum({1 << v for pair in kept for v in pair})
        return any(v >= 0 and named >> v & 1 for _, _, _, owners in layout for v in owners)

    def tie_order(self, key, order_them) -> list[int]:
        """A tie's degree order (see :meth:`PerformanceModel.rank`):
        ``order_them()``, kept by ``key`` — (iep_k, the graph statistics,
        the tied configuration numbers), None to keep nothing — for the
        most recent :data:`TIE_ORDERS` keys, since snapshots of a churned
        graph revisit the same statistics."""
        order = None if key is None else self._tie_orders.get(key)
        if order is None:
            order = order_them()
            if key is not None:
                with self._lock:
                    self._tie_orders[key] = order
                    while len(self._tie_orders) > TIE_ORDERS:
                        del self._tie_orders[next(iter(self._tie_orders))]
        return order

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
        #: row factors by side and candidate sizes, for the degree-order
        #: price
        self._factors: dict[tuple[int, int], float] = {}
        self._sizes: list[float] = []

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
        this call, with ``auts`` as its group.  The configurations tied
        at the cheapest price are ordered by :func:`degree_order_cost`
        (scaled alike); every other tie keeps the input order.
        """
        if not isinstance(configurations, ConfigurationSet):
            configurations = ConfigurationSet(configurations, auts=auts)
        terms: dict[tuple[int, ...], tuple[list[float], list[float]]] = {}
        factors: dict = {}
        ranked = []
        shapes = configurations.shapes(iep_k)
        for config, (dep_counts, k, fs, _, _) in zip(configurations, shapes):
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
        order = sorted(range(len(ranked)), key=lambda i: ranked[i].predicted_cost)
        best = ranked[order[0]].predicted_cost if order else None
        tied = 1
        while tied < len(order) and ranked[order[tied]].predicted_cost == best:
            tied += 1
        if tied > 1 and self.stats.degree_order_exponent != 0.0:
            # exact ties at the cheapest price: order them by degree order
            terms: dict[int, tuple[float, float]] = {}

            def price(i: int) -> float:
                if not configurations.sided(iep_k, i):
                    # every factor is 1: the degree-order price is the price
                    return ranked[i].predicted_cost
                cost = self._degree_order_cost(configurations, iep_k, i, shapes[i], terms)
                return cost * factors.get(ranked[i].config.schedule, 1.0)

            key = (iep_k, self.stats, tuple(order[:tied])) if scale is None else None
            order[:tied] = configurations.tie_order(key, lambda: sorted(order[:tied], key=price))
        return [ranked[i] for i in order]

    def _degree_order_cost(
        self, configurations: ConfigurationSet, iep_k: int, index: int, shape: tuple, terms: dict
    ) -> float:
        """:func:`degree_order_cost` of configuration ``index``'s plan,
        priced from its shape (``shape``: its row of
        :meth:`ConfigurationSet.shapes`); ``terms`` keeps ``(l_i, c_i)``
        by the set's depth-sides number."""
        ls, cs = [], []
        for number in configurations.sides(iep_k, index):
            term = terms.get(number)
            if term is None:
                row = configurations.depth_sides[number]
                factors = []
                for side in row:
                    factor = self._factors.get(side)
                    if factor is None:
                        factor = self._factors[side] = _side_factor(
                            self.stats.degree_order_exponent, side
                        )
                    factors.append(factor)
                if len(self._sizes) < len(row) + 2:
                    self._sizes = _candidate_sizes(self.stats, len(row))
                term = terms[number] = _scaled_terms(factors, self._sizes)
            ls.append(term[0])
            cs.append(term[1])
        return _nested_cost(shape[1], ls, shape[2], cs)

    def choose(self, configurations, *, iep_k: int = 0) -> RankedConfiguration:
        ranked = self.rank(configurations, iep_k=iep_k)
        if not ranked:
            raise ValueError("no configurations to choose from")
        return ranked[0]

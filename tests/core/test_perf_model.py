"""The performance prediction model (§IV-C)."""

import pytest

from repro.core.config import Configuration, compile_plan, enumerate_configurations
from repro.core.perf_model import (
    ConfigurationSet,
    PerformanceModel,
    cost_breakdown,
    estimate_cost,
    filter_probabilities,
    intersection_cost_estimates,
    loop_size_estimates,
)
from repro.core.restrictions import generate_restriction_sets
from repro.core.schedule import generate_schedules
from repro.graph.generators import erdos_renyi
from repro.graph.stats import GraphStats
from repro.pattern.catalog import clique, house, pentagon, triangle


@pytest.fixture(scope="module")
def stats():
    return GraphStats.of(erdos_renyi(300, 0.05, seed=77))


class TestFilterProbabilities:
    def test_paper_house_example(self):
        """Fig. 5(b): id(A)>id(B) in loop 2 → f = 1/2 there, 0 elsewhere."""
        cfg = Configuration(house(), (0, 1, 2, 3, 4), frozenset({(0, 1)}))
        fs = filter_probabilities(cfg.compile())
        assert fs == [0.0, 0.5, 0.0, 0.0, 0.0]

    def test_chain_restrictions_sequential_filtering(self):
        """id(0)>id(1) filters half; id(1)>id(2) filters 2/3 of the rest."""
        cfg = Configuration(
            triangle(), (0, 1, 2), frozenset({(0, 1), (1, 2)})
        )
        fs = filter_probabilities(cfg.compile())
        assert fs[0] == 0.0
        assert fs[1] == pytest.approx(0.5)
        assert fs[2] == pytest.approx(2.0 / 3.0)

    def test_no_restrictions_all_zero(self):
        cfg = Configuration(house(), (0, 1, 2, 3, 4), frozenset())
        assert filter_probabilities(cfg.compile()) == [0.0] * 5

    def test_survivor_fraction_is_one_over_aut(self):
        """A complete restriction set keeps exactly n!/|Aut| orderings,
        so the product of (1 - f_i) must equal 1/|Aut|."""
        import math

        from repro.pattern.automorphism import automorphism_count

        for pattern in (triangle(), house(), pentagon()):
            rs = generate_restriction_sets(pattern)[0]
            schedule = generate_schedules(pattern)[0]
            plan = Configuration(pattern, schedule, rs).compile()
            fs = filter_probabilities(plan)
            surviving = math.prod(1.0 - f for f in fs)
            assert surviving == pytest.approx(1.0 / automorphism_count(pattern))


class TestCardinalities:
    def test_loop_sizes_match_estimator(self, stats):
        cfg = Configuration(house(), (0, 1, 2, 3, 4), frozenset())
        ls = loop_size_estimates(cfg.compile(), stats)
        assert ls[0] == stats.n_vertices
        assert ls[1] == pytest.approx(stats.avg_degree)
        assert ls[3] == pytest.approx(stats.expected_candidate_size(2))

    def test_intersection_costs_zero_for_single_dep(self, stats):
        cfg = Configuration(house(), (0, 1, 2, 3, 4), frozenset())
        cs = intersection_cost_estimates(cfg.compile(), stats)
        assert cs[0] == 0.0 and cs[1] == 0.0 and cs[2] == 0.0
        assert cs[3] > 0.0 and cs[4] > 0.0


class TestCostModel:
    def test_restrictions_reduce_cost(self, stats):
        base = Configuration(house(), (0, 1, 2, 3, 4), frozenset())
        restricted = Configuration(house(), (0, 1, 2, 3, 4), frozenset({(0, 1)}))
        assert estimate_cost(restricted.compile(), stats) < estimate_cost(
            base.compile(), stats
        )

    def test_connected_prefix_cheaper_than_disconnected(self, stats):
        """Phase 1's rationale: |V|-sized middle loops are catastrophic."""
        good = Configuration(house(), (0, 1, 2, 3, 4), frozenset())
        bad = Configuration(house(), (2, 3, 4, 0, 1), frozenset())
        assert estimate_cost(good.compile(), stats) < estimate_cost(bad.compile(), stats)

    def test_iep_plan_cheaper_than_plain_when_loops_are_large(self):
        """IEP wins when the absorbed inner loops iterate more than once
        on average (l_i > 1) — i.e. on dense/clustered graphs.  On very
        sparse graphs the model may legitimately prefer plain loops."""
        dense = GraphStats.of(erdos_renyi(150, 0.3, seed=3))
        rs = generate_restriction_sets(house())[0]
        cfg = Configuration(house(), (0, 1, 2, 3, 4), rs)
        plain = estimate_cost(cfg.compile(), dense)
        iep = estimate_cost(cfg.compile(iep_k=2), dense)
        assert iep < plain

    def test_breakdown_fields(self, stats):
        cfg = Configuration(triangle(), (0, 1, 2), frozenset({(0, 1)}))
        bd = cost_breakdown(cfg.compile(), stats)
        assert len(bd.loop_sizes) == 3
        assert len(bd.filter_probs) == 3
        assert len(bd.intersection_costs) == 3
        assert bd.total > 0


class TestModelRanking:
    def test_rank_sorted(self, stats):
        pattern = house()
        configs = enumerate_configurations(
            pattern,
            generate_schedules(pattern, dedup_automorphic=True),
            generate_restriction_sets(pattern),
        )
        model = PerformanceModel(stats)
        ranked = model.rank(configs)
        costs = [r.predicted_cost for r in ranked]
        assert costs == sorted(costs)
        assert len(ranked) == len(configs)

    def test_choose_returns_cheapest(self, stats):
        pattern = triangle()
        configs = enumerate_configurations(
            pattern, generate_schedules(pattern), generate_restriction_sets(pattern)
        )
        model = PerformanceModel(stats)
        chosen = model.choose(configs)
        assert chosen.predicted_cost == min(r.predicted_cost for r in model.rank(configs))

    def test_choose_empty_raises(self, stats):
        with pytest.raises(ValueError):
            PerformanceModel(stats).choose([])

    def test_iep_mode_compiles_iep_plans(self, stats):
        pattern = house()
        configs = enumerate_configurations(
            pattern,
            generate_schedules(pattern, dedup_automorphic=True)[:4],
            generate_restriction_sets(pattern)[:2],
        )
        ranked = PerformanceModel(stats).rank(configs, iep_k=2)
        assert any(r.plan.iep_k > 0 for r in ranked)

    @pytest.mark.parametrize("iep_k", [0, 2])
    def test_configuration_set_reranks_exactly_without_recompiling(
        self, stats, iep_k, monkeypatch
    ):
        """A ConfigurationSet ranked on a second graph yields exactly the
        ranking of a fresh list; neither ranking compiles a configuration
        and the second works out no shape again."""
        import repro.core.perf_model as perf_model

        pattern = house()
        configs = enumerate_configurations(
            pattern,
            generate_schedules(pattern, dedup_automorphic=True),
            generate_restriction_sets(pattern),
        )
        other = GraphStats.of(erdos_renyi(200, 0.12, seed=5))
        compiled = []
        shared = ConfigurationSet(
            configs, compile=lambda *a, **kw: compiled.append(a) or compile_plan(*a, **kw)
        )
        PerformanceModel(stats).rank(shared, iep_k=iep_k)
        worked = []
        real = perf_model._filter_probabilities
        monkeypatch.setattr(
            perf_model,
            "_filter_probabilities",
            lambda *a: worked.append(a) or real(*a),
        )
        again = PerformanceModel(other).rank(shared, iep_k=iep_k)
        assert compiled == [] and worked == []
        monkeypatch.undo()
        fresh = PerformanceModel(other).rank(configs, iep_k=iep_k)
        assert [(r.config, r.iep_k, r.predicted_cost) for r in again] == [
            (r.config, r.iep_k, r.predicted_cost) for r in fresh
        ]
        assert [r.plan for r in again] == [r.plan for r in fresh]
        assert len(compiled) == len(configs)

    def test_model_prefers_selective_schedule_on_clustered_graph(self):
        """The model must use triangle information: on a triangle-free
        graph the intersection-of-2 estimate collapses to ~0."""
        from repro.graph.builder import graph_from_edges

        # Bipartite-ish (triangle-free): K_{20,20} minus nothing.
        edges = [(i, 20 + j) for i in range(20) for j in range(20)]
        g = graph_from_edges(edges)
        s = GraphStats.of(g)
        assert s.p2 == 0.0
        cfg = Configuration(triangle(), (0, 1, 2), frozenset())
        ls = loop_size_estimates(cfg.compile(), s)
        assert ls[2] == 0.0  # model knows there are no triangles


class TestModelAccuracy:
    """Figure 11's property at miniature scale: the model's pick is close
    to the oracle's best over all generated schedules."""

    def test_within_small_factor_of_oracle(self):
        import time

        from repro.core.engine import Engine

        g = erdos_renyi(120, 0.1, seed=13)
        stats = GraphStats.of(g)
        pattern = house()
        rs = generate_restriction_sets(pattern)[0]
        schedules = generate_schedules(pattern, dedup_automorphic=True)
        configs = [Configuration(pattern, s, rs) for s in schedules]
        ranked = PerformanceModel(stats).rank(configs)

        def measure(plan):
            t0 = time.perf_counter()
            Engine(g, plan).count()
            return time.perf_counter() - t0

        times = {r.config.schedule: measure(r.plan) for r in ranked}
        oracle = min(times.values())
        chosen_time = times[ranked[0].config.schedule]
        # The paper reports 32% from oracle on average; leave slack for
        # timing noise at this tiny scale.
        assert chosen_time <= max(4.0 * oracle, oracle + 0.05)


# ---------------------------------------------------------------------------
# pricing from shapes vs compiling: the oracle
# ---------------------------------------------------------------------------
def _compiled_oracle(config, iep_k, group):
    """The largest feasible IEP plan ≤ ``iep_k``, found the slow way:
    compile, and step k down while the overcount is not uniform."""
    from repro.core.restrictions import NonUniformOvercountError
    from repro.core.schedule import intersection_free_suffix_length

    k = min(iep_k, intersection_free_suffix_length(config.pattern, config.schedule))
    while k > 0:
        try:
            return compile_plan(config, iep_k=k, auts=group)
        except NonUniformOvercountError:
            k -= 1
    return compile_plan(config)


def _mode_cases():
    """(case id, mode, pattern) for the planner goldens' plain patterns,
    labelings and directed patterns."""
    from repro.pattern.catalog import get_pattern
    from repro.pattern.directed import get_directed_pattern
    from repro.pattern.labeled import LabeledPattern
    from tests.core.test_planner_identity import DIRECTED, LABELED, _plain_patterns

    cases = [(f"plain.{n}", "plain", p) for n, p in _plain_patterns().items()]
    cases += [
        (f"labeled.{key}", "labeled", LabeledPattern(get_pattern(n), labels))
        for key, (n, labels) in LABELED.items()
    ]
    cases += [(f"directed.{n}", "directed", get_directed_pattern(n)) for n in DIRECTED]
    return cases


class TestPricingOracle:
    """Pricing a configuration from its shape — dependency counts, the
    depth pairs of the restrictions it keeps, its largest feasible IEP k
    — must give exactly the compiled plan's ``iep_k`` and
    ``estimate_cost``, for every configuration each mode ranks."""

    @pytest.mark.parametrize("case", _mode_cases(), ids=lambda c: c[0])
    def test_priced_k_and_cost_equal_the_compiled_plan(self, stats, case):
        from repro.core.schedule import independent_suffix_size
        from repro.core.session import _plan_pattern

        _, mode, pattern = case
        pattern_plan = _plan_pattern(mode, pattern)
        configs = pattern_plan.configurations
        group = configs._group(pattern_plan.skeleton)
        model = PerformanceModel(stats)
        for iep_k in sorted({0, independent_suffix_size(pattern_plan.skeleton)}):
            ranked = model.rank(configs, iep_k=iep_k)
            assert len(ranked) == len(configs)
            for r in ranked:
                plan = _compiled_oracle(r.config, iep_k, group)
                assert (r.iep_k, r.predicted_cost) == (
                    plan.iep_k,
                    estimate_cost(plan, stats),
                ), r.config.describe()
                # the mode's own compile lands on the same suffix
                assert r.plan.iep_k == plan.iep_k


class TestOneCompilePerPlan:
    """A cold plan compiles the winner and nothing else, in every mode."""

    @pytest.mark.parametrize(
        "mode,use_iep",
        [
            ("plain", True),
            ("plain", False),
            ("induced", None),
            ("labeled", True),
            ("labeled", False),
            ("directed", True),
            ("directed", False),
        ],
    )
    def test_cold_plan_calls_the_compile_function_once(self, monkeypatch, mode, use_iep):
        import repro.core.directed as directed_mod
        import repro.core.labeled as labeled_mod
        import repro.core.session as session_mod
        from repro.core.query import MatchQuery
        from repro.core.session import MatchSession
        from repro.graph.digraph import random_digraph
        from repro.graph.labeled import assign_random_labels
        from repro.pattern.catalog import get_pattern
        from repro.pattern.directed import get_directed_pattern
        from repro.pattern.labeled import LabeledPattern

        graph = erdos_renyi(60, 0.15, seed=3)
        owner, name = session_mod, "compile_plan"
        if mode == "labeled":
            owner, graph = labeled_mod, assign_random_labels(graph, 2, seed=4)
            lp = LabeledPattern(get_pattern("P3"), (0, 0, 1, 1, 0, 0))
            query = MatchQuery(lp, use_iep=use_iep)
        elif mode == "directed":
            owner = directed_mod
            graph = random_digraph(60, 0.08, seed=5)
            query = MatchQuery(get_directed_pattern("dcycle-5"), use_iep=use_iep)
        elif mode == "induced":
            query = MatchQuery(get_pattern("P3"), semantics="induced")
        else:
            query = MatchQuery(get_pattern("P3"), use_iep=use_iep)
        calls = []
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(kw) or real(*a, **kw))
        entry = MatchSession(graph).plan_for(query)
        assert len(calls) == 1
        assert calls[0]["iep_k"] == entry.plan.iep_k
        assert len(entry.report.ranking) > 1

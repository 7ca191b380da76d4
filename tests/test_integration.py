"""Cross-module integration: the full pipeline, determinism, consistency."""

import pytest

from repro import MatchQuery, count_pattern, get_pattern, get_session, load_dataset
from repro.baselines.bruteforce import bruteforce_count
from repro.core.backend import MatchContext, select_backend
from repro.core.engine import Engine
from repro.core.session import plan_plain
from repro.graph.datasets import clear_memo
from repro.graph.stats import GraphStats
from repro.runtime.cluster import ClusterSpec, ClusterSimulator
from repro.runtime.parallel import measure_task_costs, parallel_count
from repro.runtime.tasks import run_partitioned


def _report(graph, pattern, use_iep=False):
    query = MatchQuery(pattern, use_iep=use_iep)
    return get_session(graph).plan_for(query, kernel=True).report


def _run(graph, report):
    ctx = MatchContext(graph=graph, plan=report.plan, generated=report.generated)
    return select_backend(ctx).count(ctx)


class TestFullPipelineDeterminism:
    def test_same_seed_same_everything(self):
        clear_memo()
        g1 = load_dataset("wiki-vote", scale=0.1, seed=42)
        rep1 = _report(g1, get_pattern("house"), use_iep=True)
        c1 = _run(g1, rep1)

        clear_memo()
        g2 = load_dataset("wiki-vote", scale=0.1, seed=42)
        rep2 = _report(g2, get_pattern("house"), use_iep=True)
        c2 = _run(g2, rep2)

        assert g1 == g2
        assert rep1.chosen.config.schedule == rep2.chosen.config.schedule
        assert rep1.chosen.config.restrictions == rep2.chosen.config.restrictions
        assert c1 == c2

    def test_generated_source_deterministic(self):
        g = load_dataset("wiki-vote", scale=0.1, seed=42)
        stats = GraphStats.of(g)
        reports = [plan_plain(get_pattern("pentagon"), stats) for _ in range(2)]
        assert reports[0].generated.source == reports[1].generated.source


class TestExecutionPathsAgree:
    """count == codegen == partitioned == multiprocessing == IEP."""

    @pytest.mark.parametrize("pattern_name", ["triangle", "rectangle", "house"])
    def test_five_ways(self, pattern_name, er_small):
        pattern = get_pattern(pattern_name)
        expected = bruteforce_count(er_small, pattern)

        rep_plain = _report(er_small, pattern, use_iep=False)
        rep_iep = _report(er_small, pattern, use_iep=True)

        assert rep_plain.generated(er_small) == expected
        assert Engine(er_small, rep_plain.plan).count() == expected
        assert _run(er_small, rep_iep) == expected
        total, _ = run_partitioned(er_small, rep_plain.plan)
        assert total == expected
        assert parallel_count(er_small, rep_plain.plan, n_workers=1).count == expected

    def test_oneshot_matches(self, er_small):
        pattern = get_pattern("hourglass")
        assert count_pattern(er_small, pattern) == bruteforce_count(er_small, pattern)


class TestMeasuredCostsDriveSimulation:
    def test_end_to_end_scaling_path(self, er_small):
        pattern = get_pattern("triangle")
        rep = _report(er_small, pattern)
        costs = measure_task_costs(er_small, rep.plan, split_depth=1)
        assert len(costs) > 0
        result = ClusterSimulator(ClusterSpec(4, threads_per_node=2)).run(costs)
        assert result.makespan > 0
        assert result.total_work == pytest.approx(sum(costs))

    def test_cyclic_distribution_also_completes(self, er_small):
        pattern = get_pattern("triangle")
        rep = _report(er_small, pattern)
        costs = measure_task_costs(er_small, rep.plan, split_depth=1)
        a = ClusterSimulator(ClusterSpec(3, threads_per_node=2)).run(
            costs, distribution="block"
        )
        b = ClusterSimulator(ClusterSpec(3, threads_per_node=2)).run(
            costs, distribution="cyclic"
        )
        assert a.total_work == pytest.approx(b.total_work)


class TestStatsCaching:
    def test_plan_accepts_shared_stats(self, er_small):
        """One GraphStats can drive many plans (the paper's
        preprocessing is per-pattern, stats are per-graph)."""
        stats = GraphStats.of(er_small)
        for name in ("triangle", "house", "pentagon"):
            rep = plan_plain(get_pattern(name), stats, use_iep=False)
            assert rep.stats is stats

    def test_overcount_multiplicity_memoised(self):
        from repro.core.restrictions import (
            _multiplicity_cache,
            iep_overcount_multiplicity,
        )
        from repro.pattern.catalog import house

        kept = frozenset({(0, 1)})
        a = iep_overcount_multiplicity(house(), kept)
        size_before = len(_multiplicity_cache)
        b = iep_overcount_multiplicity(house(), kept)
        assert a == b
        assert len(_multiplicity_cache) == size_before

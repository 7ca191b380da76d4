"""Task partitioning: root tasks and prefix tasks must tile the search
exactly."""

import pytest

from repro.core.backend import MatchContext
from repro.core.config import Configuration
from repro.core.engine import Engine
from repro.core.restrictions import generate_restriction_sets
from repro.core.schedule import generate_schedules, intersection_free_suffix_length
from repro.graph.generators import erdos_renyi
from repro.pattern.catalog import cycle_6_tri, house, pentagon, rectangle, triangle
from repro.runtime.tasks import (
    Task,
    choose_split_depth,
    execute_task,
    generate_tasks,
    root_tasks,
    run_partitioned,
    task_counter,
)


def make_plan(pattern, iep_k=0):
    s = generate_schedules(pattern)[0]
    rs = generate_restriction_sets(pattern)[0]
    return Configuration(pattern, s, rs).compile(iep_k=iep_k)


def plans_for(pattern, n=2, iep_k=0):
    """Plans of the first ``n`` schedules x ``n`` restriction sets, each
    with the longest IEP suffix up to ``iep_k`` its schedule allows."""
    return [
        Configuration(pattern, s, rs).compile(
            iep_k=min(iep_k, intersection_free_suffix_length(pattern, s))
        )
        for s in generate_schedules(pattern, dedup_automorphic=True)[:n]
        for rs in generate_restriction_sets(pattern)[:n]
    ]


class TestSplitDepth:
    def test_simple_pattern_single_loop(self):
        assert choose_split_depth(make_plan(triangle())) == 1

    def test_complex_pattern_two_loops(self):
        assert choose_split_depth(make_plan(house())) == 2

    def test_target_tasks_deepens(self, er_small):
        plan = make_plan(house())
        shallow = choose_split_depth(plan)
        deep = choose_split_depth(plan, target_tasks=10**6, graph=er_small)
        assert deep >= shallow

    def test_never_exceeds_loops(self, er_small):
        plan = make_plan(triangle())
        d = choose_split_depth(plan, target_tasks=10**9, graph=er_small)
        assert d <= plan.n_loops - 1


class TestPartitionedRun:
    def test_equals_direct_count(self, er_small):
        for pattern in (triangle(), house()):
            plan = make_plan(pattern)
            direct = Engine(er_small, plan).count()
            total, parts = run_partitioned(er_small, plan)
            assert total == direct
            assert len(parts) > 1

    def test_iep_plan_partitioned(self, er_small):
        plan = make_plan(house(), iep_k=2)
        direct = Engine(er_small, plan).count()
        total, _ = run_partitioned(er_small, plan, split_depth=1)
        assert total == direct

    def test_partial_sums_are_raw(self, er_small):
        """Task results are pre-division so they can be summed."""
        plan = make_plan(triangle())
        engine = Engine(er_small, plan)
        tasks = list(generate_tasks(engine, 1))
        total_raw = sum(execute_task(engine, t) for t in tasks)
        assert engine.finalize_count(total_raw) == engine.count()

    def test_tasks_cover_disjointly(self, er_small):
        """Every embedding is found by exactly one task: the sum over
        tasks equals the total (no double counting, no gaps)."""
        plan = make_plan(house())
        engine = Engine(er_small, plan)
        per_task = [execute_task(engine, t) for t in generate_tasks(engine, 2)]
        assert sum(per_task) == engine.count()

    def test_task_dataclass(self):
        t = Task((3, 5))
        assert t.depth == 2
        assert t.prefix == (3, 5)


class TestRootTasks:
    """Root tasks counted by the task counter sum to the full count, for
    any granularity and order, on both executors."""

    @pytest.mark.parametrize(
        "pattern", [triangle(), rectangle(), house(), pentagon()],
        ids=lambda p: p.name,
    )
    def test_root_task_sums_match_full_count(self, pattern):
        g = erdos_renyi(40, 0.25, seed=17)
        for plan in plans_for(pattern):
            engine = Engine(g, plan)
            full = engine.count()
            counter, _ = task_counter(MatchContext(graph=g, plan=plan))
            for n_tasks, order in ((1, "block"), (7, "cyclic"), (40, "block")):
                tasks = root_tasks(engine, n_tasks, order)
                raw = sum(counter(roots) for roots in tasks)
                assert engine.finalize_count(raw) == full, (
                    plan.config.describe(), n_tasks, order
                )

    def test_root_task_sums_match_with_iep(self):
        g = erdos_renyi(40, 0.25, seed=19)
        for plan in plans_for(cycle_6_tri(), n=1, iep_k=3):
            assert plan.iep_k > 0
            engine = Engine(g, plan)
            counter, _ = task_counter(MatchContext(graph=g, plan=plan))
            raw = sum(counter(roots) for roots in root_tasks(engine, 8, "cyclic"))
            assert engine.finalize_count(raw) == engine.count()

    def test_partition_is_exact(self, er_small):
        engine = Engine(er_small, make_plan(house()))
        viable = [p[0] for p in engine.iter_prefixes(1)]
        for n_tasks in (1, 3, len(viable), 10 * len(viable)):
            tasks = root_tasks(engine, n_tasks, "cyclic")
            assert sorted(r for t in tasks for r in t) == sorted(viable)
            assert all(tasks) and len(tasks) == min(n_tasks, len(viable))

"""Real multiprocessing backend."""

import pytest

from repro.core.config import Configuration
from repro.core.engine import Engine
from repro.core.restrictions import generate_restriction_sets
from repro.core.schedule import generate_schedules
from repro.pattern.catalog import house, triangle
from repro.runtime.parallel import measure_task_costs, parallel_count


def make_plan(pattern, iep_k=0):
    s = generate_schedules(pattern)[0]
    rs = generate_restriction_sets(pattern)[0]
    return Configuration(pattern, s, rs).compile(iep_k=iep_k)


class TestParallelCount:
    def test_matches_serial(self, er_small):
        plan = make_plan(house())
        expected = Engine(er_small, plan).count()
        res = parallel_count(er_small, plan, n_workers=2)
        assert res.count == expected
        assert res.n_workers == 2
        assert res.n_tasks == 16  # TASKS_PER_WORKER root tasks per worker
        assert res.executor == "vectorised"

    def test_single_worker_path(self, er_small):
        plan = make_plan(triangle())
        expected = Engine(er_small, plan).count()
        res = parallel_count(er_small, plan, n_workers=1)
        assert res.count == expected

    def test_iep_plan(self, er_small):
        plan = make_plan(house(), iep_k=2)
        expected = Engine(er_small, plan).count()
        assert parallel_count(er_small, plan, n_workers=2).count == expected

    def test_accepts_configuration(self, er_small):
        cfg = Configuration(
            triangle(), (0, 1, 2), generate_restriction_sets(triangle())[0]
        )
        expected = Engine(er_small, cfg.compile()).count()
        assert parallel_count(er_small, cfg, n_workers=1).count == expected

    def test_rejects_garbage(self, er_small):
        with pytest.raises(TypeError):
            parallel_count(er_small, 42)

    def test_rejects_non_positive_workers(self, er_small):
        # Refused before the master enumerates a task or starts a pool.
        with pytest.raises(ValueError, match="n_workers must be >= 1"):
            parallel_count(er_small, make_plan(triangle()), n_workers=0)


class TestMeasureTaskCosts:
    def test_costs_nonnegative_and_complete(self, er_small):
        plan = make_plan(triangle())
        costs = measure_task_costs(er_small, plan, split_depth=1)
        engine = Engine(er_small, plan)
        n_tasks = sum(1 for _ in engine.iter_prefixes(1))
        assert len(costs) == n_tasks
        assert all(c >= 0 for c in costs)

    def test_limit(self, er_small):
        plan = make_plan(triangle())
        assert len(measure_task_costs(er_small, plan, split_depth=1, limit=5)) == 5

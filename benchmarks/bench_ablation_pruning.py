"""Ablation: how restriction placement is executed.

Our engine resolves restrictions as *range slices* on the sorted
candidate stream (binary search), generalising the paper's ``break``
(docs/architecture.md walks the pipeline).  This bench quantifies the
ladder:

1. no restrictions at all (count every automorphic image, divide later) —
   what AutoMine-without-symmetry-breaking pays;
2. restrictions as per-candidate *filter checks* (the naive reading);
3. restrictions as range slices (GraphPi's break, generalised).
"""

import pytest

from repro.core.codegen import compile_plan_function
from repro.core.config import Configuration
from repro.core.engine import Engine
from repro.core.restrictions import generate_restriction_sets
from repro.core.schedule import generate_schedules
from repro.graph.intersection import bounded_slice
from repro.pattern.automorphism import automorphism_count
from repro.pattern.catalog import house
from repro.utils.tables import Table, format_seconds, format_speedup

from _common import bench_graph, emit, once, time_call


def _filter_check_count(graph, plan):
    """Variant 2: apply bounds by scanning candidates one by one."""
    n = plan.n

    def rec(depth, assigned):
        deps = plan.deps[depth]
        if deps:
            from repro.graph.intersection import intersect_many

            arrays = [graph.neighbors(assigned[j]) for j in deps]
            cand = arrays[0] if len(arrays) == 1 else intersect_many(arrays)
        else:
            cand = graph.vertices()
        total = 0
        for v in cand:
            vi = int(v)
            if vi in assigned:
                continue
            ok = all(vi > assigned[j] for j in plan.lower[depth]) and all(
                vi < assigned[j] for j in plan.upper[depth]
            )
            if not ok:
                continue
            if depth == n - 1:
                total += 1
            else:
                assigned.append(vi)
                total += rec(depth + 1, assigned)
                assigned.pop()
        return total

    return rec(0, [])


@pytest.mark.benchmark(group="ablation-pruning")
def test_ablation_restriction_pruning(benchmark, capsys):
    graph = bench_graph("wiki-vote")
    pattern = house()
    rs = generate_restriction_sets(pattern)[0]
    schedule = generate_schedules(pattern)[0]

    plan = Configuration(pattern, schedule, rs).compile()
    plan_none = Configuration(pattern, schedule, frozenset()).compile()

    t_none, raw = time_call(compile_plan_function(plan_none), graph)
    count_none = raw // automorphism_count(pattern)
    t_filter, count_filter = time_call(_filter_check_count, graph, plan)
    t_slice, count_slice = time_call(compile_plan_function(plan), graph)
    assert count_none == count_filter == count_slice

    table = Table(
        ["variant", "time", "speedup vs no-restrictions"],
        title="Ablation: restriction execution strategy (house on wiki proxy)",
    )
    table.add_row(["no restrictions (÷|Aut| afterwards)", format_seconds(t_none), "1x"])
    table.add_row(["per-candidate filter checks", format_seconds(t_filter),
                   format_speedup(t_none / t_filter)])
    table.add_row(["range slices / break (GraphPi)", format_seconds(t_slice),
                   format_speedup(t_none / t_slice)])
    emit(table, capsys, "ablation_pruning.tsv")

    once(benchmark, compile_plan_function(plan), graph)

    # Slicing must beat per-candidate checks; both beat no restrictions
    # for a symmetric pattern.
    assert t_slice <= t_filter
    assert t_slice < t_none

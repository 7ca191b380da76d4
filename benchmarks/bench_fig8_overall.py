"""Figure 8: overall performance — GraphPi vs GraphZero vs Fractal.

Paper: 6 patterns x 5 graphs on one Tianhe-2A node; GraphPi beats
GraphZero by 1.4x-105x and Fractal by 26x-154x on average per pattern;
Fractal OOMs on Orkut; several GraphZero runs exceed 48 h.

Here: the same grid on scaled proxies.  GraphPi = model-selected
configuration + generated code (no IEP, as in the paper's Fig. 8);
GraphZero = its single restriction set + degree-only schedule choice;
Fractal = frontier-materialising extension with a memory cap (the cap
reproduces the paper's OOM entries).  Expect the ordering
GraphPi <= GraphZero << Fractal with the gap growing on larger patterns.
"""

import pytest

from repro.baselines.fractal import FractalMatcher
from repro.baselines.graphzero import GraphZeroMatcher
from repro.core.engine import Engine
from repro.graph.datasets import SINGLE_NODE_DATASETS
from repro.pattern.catalog import paper_patterns
from repro.utils.tables import Table, format_seconds, format_speedup

from _common import bench_graph, emit, once, plan_report, time_call

#: frontier cap standing in for the 64 GB node memory (tuples ~ bytes).
FRACTAL_FRONTIER_CAP = 3_000_000

#: patterns large enough that the Fractal baseline would dominate the
#: whole suite's runtime; the paper similarly reports "T" (>48h) entries.
FRACTAL_SKIP = {"P5", "P6"}
GRAPHZERO_SKIP: set[str] = set()


def _graphpi_seconds(graph, pattern):
    report = plan_report(graph, pattern, use_iep=False, max_restriction_sets=16)
    return time_call(report.generated, graph)


def _graphzero_seconds(graph, pattern):
    matcher = GraphZeroMatcher(pattern)
    plan = matcher.plan(graph)
    return time_call(Engine(graph, plan.plan).count)


def _fractal_seconds(graph, pattern):
    matcher = FractalMatcher(pattern, max_frontier=FRACTAL_FRONTIER_CAP)
    try:
        return time_call(matcher.count, graph)
    except MemoryError:
        return (float("inf"), "OOM")


@pytest.mark.benchmark(group="fig8")
def test_fig8_overall_performance(benchmark, capsys):
    patterns = paper_patterns()
    table = Table(
        ["graph", "pattern", "GraphPi", "GraphZero", "Fractal",
         "GZ/Pi speedup", "Fractal/Pi speedup", "count"],
        title="Figure 8: overall performance (proxies; paper: GraphPi up to "
              "105x over GraphZero, 154x over Fractal; Fractal OOM on Orkut)",
    )
    speedups_gz, speedups_fr = [], []
    for gname in SINGLE_NODE_DATASETS:
        graph = bench_graph(gname)
        for pname, pattern in patterns.items():
            t_pi, count = _graphpi_seconds(graph, pattern)
            if pname in GRAPHZERO_SKIP:
                t_gz, c_gz = float("nan"), None
            else:
                t_gz, c_gz = _graphzero_seconds(graph, pattern)
                assert c_gz == count, (gname, pname)
            if pname in FRACTAL_SKIP:
                t_fr, c_fr = float("nan"), None
            else:
                t_fr, c_fr = _fractal_seconds(graph, pattern)
                if c_fr != "OOM":
                    assert c_fr == count, (gname, pname)
            gz_ratio = t_gz / t_pi if t_gz == t_gz else float("nan")
            fr_ratio = t_fr / t_pi if t_fr == t_fr else float("nan")
            if gz_ratio == gz_ratio:
                speedups_gz.append(gz_ratio)
            if fr_ratio == fr_ratio and fr_ratio != float("inf"):
                speedups_fr.append(fr_ratio)
            table.add_row(
                [gname, pname, format_seconds(t_pi), format_seconds(t_gz),
                 "OOM" if t_fr == float("inf") else format_seconds(t_fr),
                 format_speedup(gz_ratio), format_speedup(fr_ratio), count]
            )
    geo_gz = _geomean(speedups_gz)
    geo_fr = _geomean(speedups_fr)
    table.add_row(["geomean", "", "", "", "", format_speedup(geo_gz),
                   format_speedup(geo_fr), ""])
    emit(table, capsys, "fig8_overall.tsv")

    # Representative single measurement for pytest-benchmark.
    graph = bench_graph("wiki-vote")
    report = plan_report(graph, patterns["P1"], use_iep=False)
    once(benchmark, report.generated, graph)

    # Shape: GraphPi at least matches GraphZero on average, and beats
    # Fractal decisively.
    assert geo_gz >= 0.95
    assert geo_fr > 2.0


def _geomean(xs):
    import math

    xs = [x for x in xs if x > 0 and x == x and x != float("inf")]
    if not xs:
        return float("nan")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))

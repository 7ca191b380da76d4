"""Table III: preprocessing and code-generation overhead per pattern.

Paper: 8 ms (P1) to 2.53 s (P6) — independent of the data graph, driven
by the pattern's symmetry (restriction enumeration) and schedule count
(model evaluations).  Compared with hours of matching, negligible.

Here: the same breakdown — restriction generation, schedule generation,
model ranking, code generation — per pattern, using cached graph stats
(so, like the paper, no data-graph work is included).  Each pattern is
planned from scratch through ``plan_plain``, so Algorithm 1 and the
schedule generator run inside the stage timers.
"""

import pytest

from repro.core.session import plan_plain
from repro.graph.stats import GraphStats
from repro.pattern.catalog import paper_patterns
from repro.utils.tables import Table, format_seconds

from _common import bench_graph, emit, once

PAPER_OVERHEAD = {"P1": 0.008, "P2": 0.07, "P3": 0.04, "P4": 0.07,
                  "P5": 1.88, "P6": 2.53}


@pytest.mark.benchmark(group="table3")
def test_table3_preprocessing_overhead(benchmark, capsys):
    stats = GraphStats.of(bench_graph("wiki-vote"))
    table = Table(
        ["pattern", "restrictions", "schedules", "model", "codegen",
         "total", "paper total", "#configs"],
        title="Table III: preprocessing + code generation overhead",
    )
    totals = {}
    for pname, pattern in paper_patterns().items():
        report = plan_plain(pattern, stats, use_iep=False, max_restriction_sets=64)
        totals[pname] = report.seconds_total
        table.add_row(
            [pname,
             format_seconds(report.seconds_restrictions),
             format_seconds(report.seconds_schedules),
             format_seconds(report.seconds_model),
             format_seconds(report.seconds_codegen),
             format_seconds(report.seconds_total),
             format_seconds(PAPER_OVERHEAD[pname]),
             len(report.ranking)]
        )
    emit(table, capsys, "table3_preprocessing.tsv")

    once(benchmark, plan_plain, paper_patterns()["P1"], stats)

    # Shape: the symmetric 7-vertex P6 dominates, the 5-vertex P1 is the
    # cheapest, everything stays in interactive range.
    assert totals["P6"] == max(totals.values())
    assert totals["P1"] <= min(totals["P5"], totals["P6"])
    assert all(t < 30.0 for t in totals.values())

"""Figure 10: counting with vs without the Inclusion-Exclusion Principle.

Paper: same configuration, counting mode; IEP wins 4.3x (P1 average)
up to 457.8x (P2), peak 1110.5x for P2 on LiveJournal.  The win scales
with the size of the independent suffix k and the loop sizes IEP absorbs.

Here: P1-P6 on the five single-node proxies; both runs use the
model-selected configuration (the paper holds schedule/restrictions
fixed), differing only in iep_k.
"""

import pytest

from repro.graph.datasets import SINGLE_NODE_DATASETS
from repro.pattern.catalog import paper_patterns
from repro.utils.tables import Table, format_seconds, format_speedup

from _common import bench_graph, emit, once, plan_report, time_call

PAPER_AVG = {"P1": 4.3, "P2": 457.8, "P3": 320.5, "P4": 265.5, "P5": 11.1, "P6": 10.1}


@pytest.mark.benchmark(group="fig10")
def test_fig10_iep_speedup(benchmark, capsys):
    patterns = paper_patterns()
    table = Table(
        ["graph", "pattern", "k", "no IEP", "with IEP", "speedup",
         "paper avg speedup", "count"],
        title="Figure 10: counting with vs without IEP "
              "(peak in paper: 1110x, P2 on LiveJournal)",
    )
    speedups: dict[str, list[float]] = {p: [] for p in patterns}
    for gname in SINGLE_NODE_DATASETS:
        graph = bench_graph(gname)
        for pname, pattern in patterns.items():
            rep_plain = plan_report(
                graph, pattern, use_iep=False, max_restriction_sets=16
            )
            rep_iep = plan_report(graph, pattern, use_iep=True, max_restriction_sets=16)
            t_plain, c_plain = time_call(rep_plain.generated, graph)
            t_iep, c_iep = time_call(rep_iep.generated, graph)
            assert c_plain == c_iep, (gname, pname)
            ratio = t_plain / t_iep if t_iep > 0 else float("nan")
            speedups[pname].append(ratio)
            table.add_row(
                [gname, pname, rep_iep.plan.iep_k, format_seconds(t_plain),
                 format_seconds(t_iep), format_speedup(ratio),
                 f"{PAPER_AVG[pname]}x", c_plain]
            )
    for pname, rs in speedups.items():
        avg = sum(rs) / len(rs)
        table.add_row(["average", pname, "", "", "", format_speedup(avg),
                       f"{PAPER_AVG[pname]}x", ""])
    emit(table, capsys, "fig10_iep.tsv")

    graph = bench_graph("wiki-vote")
    rep = plan_report(graph, patterns["P2"], use_iep=True)
    once(benchmark, rep.generated, graph)

    # Shape: IEP helps most where the paper says it does — patterns with
    # large independent suffixes (P2, P3, P4) see the biggest wins.
    avg = {p: sum(v) / len(v) for p, v in speedups.items()}
    assert avg["P2"] > avg["P1"]
    assert avg["P2"] > 1.5 and avg["P3"] > 1.5

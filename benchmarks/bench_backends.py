"""Backend micro-benchmark: interpreter vs compiled vs parallel vs vectorised.

The tentpole claim of the unified execution-backend layer: routing every
entry point through the compiled-first core is a *win*, not just a
refactor.  This bench runs the Fig. 8-style overall workload (paper
patterns on a scaled proxy, no IEP — matching the paper's Fig. 8 setup)
on every registered counting backend, :data:`REPS` interleaved rounds
per pattern (each round runs every backend once, so host drift hits
all of them alike), and reports median seconds plus speedup over the
interpreter.

Outputs: an aligned table, a TSV under ``benchmarks/results/`` and a
machine-readable ``BENCH_backends.json`` in the repo root with the
per-pattern medians and interquartile ranges and the geometric-mean
speedups.

Run directly (``python benchmarks/bench_backends.py``) or through
pytest-benchmark like the other benches; both entry points assert the
geomean floors in :data:`SPEEDUP_FLOORS`.
"""

from __future__ import annotations

import os
from functools import partial

from repro.core.backend import MatchContext, get_backend
from repro.pattern.catalog import paper_patterns
from repro.utils.tables import Table, format_seconds, format_speedup

from _common import (
    QUICK,
    bench_graph,
    emit,
    emit_json,
    geomean,
    interleaved,
    plan_report,
    time_call,
)

DATASET = "wiki-vote"

#: backends measured, interpreter first (the speedup baseline).
BACKENDS = ["interpreter", "compiled", "parallel", "vectorised", "distributed"]

#: P1..P6 is the Fig. 8 grid; P5/P6 interpret slowly enough to dominate
#: the whole suite, so the micro-bench uses the first four patterns
#: (two in the CI quick/smoke mode).
PATTERN_LIMIT = 2 if QUICK else 4

#: interleaved rounds per pattern; each backend's median is reported.
REPS = 5

#: geomean speedup over the interpreter each backend must exceed:
#: generated code beats interpretation, and the process pool, whose
#: workers run the frontier engine, beats it by a wide margin.
SPEEDUP_FLOORS = {"compiled": 1.0, "parallel": 4.0}


def _backend_instance(name: str):
    if name == "parallel":
        # up to 4 worker processes, each counting root-range tasks on
        # the frontier engine.
        return get_backend("parallel", n_workers=min(4, os.cpu_count() or 2))
    if name == "distributed":
        # .count() skips the cost replay, so this times the real
        # counting path; the scaling study lives in bench_distributed.py.
        return get_backend("distributed")
    return get_backend(name)


def run_backend_bench() -> dict:
    graph = bench_graph(DATASET)
    patterns = dict(list(paper_patterns().items())[:PATTERN_LIMIT])
    records: dict[str, dict] = {}

    for pname, pattern in patterns.items():
        # Plan once (no IEP, as in Fig. 8); every backend executes the
        # same chosen configuration, so differences are purely execution.
        report = plan_report(graph, pattern, use_iep=False, max_restriction_sets=16)
        ctx = MatchContext(graph=graph, plan=report.plan, generated=report.generated)
        calls = {
            bname: partial(time_call, _backend_instance(bname).count, ctx)
            for bname in BACKENDS
        }
        timings = interleaved(calls, REPS)
        baseline, _, expected = timings[BACKENDS[0]]
        row: dict[str, dict] = {}
        for bname, (seconds, iqr, count) in timings.items():
            assert count == expected, (pname, bname, count, expected)
            row[bname] = {
                "seconds": seconds,
                "iqr_seconds": iqr,
                "count": int(count),
                "speedup_vs_interpreter": baseline / seconds if seconds else float("inf"),
            }
        records[pname] = row
    return {"graph": repr(graph), "dataset": DATASET, "reps": REPS, "patterns": records}


def _render(results: dict, capsys=None) -> None:
    table = Table(
        ["pattern"] + [f"{b} (s)" for b in BACKENDS]
        + [f"{b} x" for b in BACKENDS[1:]],
        title=f"execution backends on {DATASET} proxy (Fig. 8-style, no IEP)",
    )
    for pname, row in results["patterns"].items():
        cells = [pname] + [format_seconds(row[b]["seconds"]) for b in BACKENDS]
        cells += [
            format_speedup(row[b]["speedup_vs_interpreter"]) for b in BACKENDS[1:]
        ]
        table.add_row(cells)
    summary = {
        b: geomean(
            [row[b]["speedup_vs_interpreter"] for row in results["patterns"].values()]
        )
        for b in BACKENDS[1:]
    }
    table.add_row(
        ["geomean"] + [""] * len(BACKENDS)
        + [format_speedup(summary[b]) for b in BACKENDS[1:]]
    )
    results["geomean_speedup_vs_interpreter"] = summary
    emit(table, capsys, "bench_backends.tsv")
    emit_json("BENCH_backends.json", results)


def _check_floors(results: dict) -> None:
    summary = results["geomean_speedup_vs_interpreter"]
    for backend, floor in SPEEDUP_FLOORS.items():
        assert summary[backend] > floor, (
            f"{backend} geomean speedup {summary[backend]:.2f}x over the "
            f"interpreter is below its {floor}x floor"
        )


def test_backend_comparison(benchmark, capsys):
    from _common import once

    results = once(benchmark, run_backend_bench)
    _render(results, capsys)
    _check_floors(results)


if __name__ == "__main__":
    results = run_backend_bench()
    _render(results)
    _check_floors(results)

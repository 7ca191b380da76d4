"""Frontier-vs-scalar execution: vectorised vs interpreter vs compiled.

The tentpole claim of the vectorised backend: materialising per-depth
frontiers as numpy arrays and extending them in bulk beats both the
nested-loop interpreter *and* the generated per-embedding code, because
the per-candidate work (CSR gather, sorted-merge intersection,
restriction bounds) moves from the Python interpreter into whole-array
kernels.  This bench runs the Fig. 8 pattern suite (P1–P6, no IEP — the
vectorised backend's covered regime) once per backend and reports
seconds plus speedup over the interpreter baseline.

Outputs: an aligned table, a TSV under ``benchmarks/results/`` and a
machine-readable ``BENCH_vectorised.json`` in the repo root with
per-pattern timings and geometric-mean speedups.

Quick mode (``REPRO_BENCH_QUICK=1``, the CI bench-smoke job) shrinks
the proxy graph and trims the suite to the first three patterns; the
cross-backend count assertion runs in every mode.
"""

from __future__ import annotations

from repro.core.backend import MatchContext, get_backend
from repro.pattern.catalog import paper_patterns
from repro.utils.tables import Table, format_seconds, format_speedup

from _common import QUICK, bench_graph, emit, emit_json, geomean, plan_report, time_call

DATASET = "wiki-vote"

#: backends measured, interpreter first (the speedup baseline).
BACKENDS = ["interpreter", "vectorised", "compiled"]

#: quick mode keeps the smoke job in seconds; the full run covers P1–P6.
PATTERN_LIMIT = 3 if QUICK else 6

#: the acceptance floor: vectorised must beat the interpreter by this
#: factor (geomean over plain-mode patterns of >= MIN_SIZE vertices).
SPEEDUP_FLOOR = 1.5
MIN_SIZE = 4


def run_vectorised_bench() -> dict:
    graph = bench_graph(DATASET)
    patterns = dict(list(paper_patterns().items())[:PATTERN_LIMIT])
    records: dict[str, dict] = {}

    for pname, pattern in patterns.items():
        # One IEP-free plan per pattern (the vectorised backend's covered
        # regime); every backend executes the same chosen configuration,
        # so differences are purely execution strategy.
        report = plan_report(graph, pattern, use_iep=False, max_restriction_sets=16)
        ctx = MatchContext(graph=graph, plan=report.plan, generated=report.generated)
        row: dict[str, dict] = {}
        baseline = expected = None
        for bname in BACKENDS:
            seconds, count = time_call(get_backend(bname).count, ctx)
            if baseline is None:
                baseline, expected = seconds, count
            else:
                # the smoke gate: all backends agree on every count.
                assert count == expected, (pname, bname, count, expected)
            row[bname] = {
                "seconds": seconds,
                "count": int(count),
                "speedup_vs_interpreter": baseline / seconds if seconds else float("inf"),
            }
        records[pname] = {"n_vertices": pattern.n_vertices, "backends": row}
    return {
        "graph": repr(graph),
        "dataset": DATASET,
        "quick": QUICK,
        "patterns": records,
    }


def _render(results: dict, capsys=None) -> dict:
    suffix = ", quick" if QUICK else ""
    table = Table(
        ["pattern", "count"]
        + [f"{b} (s)" for b in BACKENDS]
        + [f"{b} x" for b in BACKENDS[1:]],
        title=f"frontier vs scalar execution on {DATASET} proxy (Fig. 8 suite, no IEP{suffix})",
    )
    for pname, rec in results["patterns"].items():
        row = rec["backends"]
        cells = [pname, row["interpreter"]["count"]]
        cells += [format_seconds(row[b]["seconds"]) for b in BACKENDS]
        cells += [
            format_speedup(row[b]["speedup_vs_interpreter"]) for b in BACKENDS[1:]
        ]
        table.add_row(cells)
    summary = {
        b: geomean(
            [
                rec["backends"][b]["speedup_vs_interpreter"]
                for rec in results["patterns"].values()
            ]
        )
        for b in BACKENDS[1:]
    }
    # the acceptance metric: geomean over plain patterns of size >= 4.
    large = {
        b: geomean(
            [
                rec["backends"][b]["speedup_vs_interpreter"]
                for rec in results["patterns"].values()
                if rec["n_vertices"] >= MIN_SIZE
            ]
        )
        for b in BACKENDS[1:]
    }
    table.add_row(
        ["geomean", ""] + [""] * len(BACKENDS)
        + [format_speedup(summary[b]) for b in BACKENDS[1:]]
    )
    results["geomean_speedup_vs_interpreter"] = summary
    results["geomean_speedup_size_ge_4"] = large
    emit(table, capsys, "bench_vectorised.tsv")
    emit_json("BENCH_vectorised.json", results)
    return results


def test_vectorised_comparison(benchmark, capsys):
    from _common import once

    results = once(benchmark, run_vectorised_bench)
    _render(results, capsys)
    # the acceptance criterion: bulk frontier execution beats the
    # interpreter decisively on the non-trivial patterns.
    assert results["geomean_speedup_size_ge_4"]["vectorised"] > SPEEDUP_FLOOR


if __name__ == "__main__":
    results = _render(run_vectorised_bench())
    floor = results["geomean_speedup_size_ge_4"]["vectorised"]
    assert floor > SPEEDUP_FLOOR, (
        f"vectorised geomean speedup {floor:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )

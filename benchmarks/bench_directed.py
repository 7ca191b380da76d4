"""Directed fast paths vs the interpreter, plus the reduction ablation.

Two claims under measurement:

1. **Fast-path execution** — IEP-free directed plans run on the
   vectorised frontier engine and on generated directed kernels; the
   best fast path must beat the nested-loop interpreter by a decisive
   geometric-mean factor over the directed catalog patterns.
2. **Skeleton-sharing reduction** — a batch of orientations of one
   skeleton answered through `MatchSession.count_many(reduce=True)`
   (one core enumeration + direction-code classification) vs the same
   batch counted independently (`reduce=False`, one vectorised
   frontier run per pattern).  Two batches: the triangle orientations
   and the three 4-cycle orientations.  Both arms run on warm plan
   caches and are timed in interleaved repeats (medians); counts are
   asserted equal, and the reduction must beat independent counting
   on both batches (:data:`REDUCTION_FLOOR`).

Outputs: an aligned table, a TSV under ``benchmarks/results/`` and a
machine-readable ``BENCH_directed.json`` in the repo root.

Quick mode (``REPRO_BENCH_QUICK=1``, the CI bench-smoke job) shrinks
the proxy digraph and trims the pattern suite; the cross-backend count
assertion runs in every mode.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import MatchContext, get_backend
from repro.core.directed import DirectedMatcher
from repro.core.query import MatchQuery
from repro.core.session import MatchSession
from repro.graph.digraph import digraph_from_edges
from repro.pattern.directed import DiPattern, get_directed_pattern
from repro.utils.tables import Table, format_seconds, format_speedup

from _common import QUICK, bench_graph, emit, emit_json, geomean, time_call

DATASET = "wiki-vote"
ORIENTATION_SEED = 909

#: backends measured, interpreter first (the speedup baseline).
BACKENDS = ["interpreter", "vectorised", "compiled"]

PATTERN_NAMES = ["ffl", "bifan", "dcycle-3", "dpath-4", "outstar-3"]
PATTERN_LIMIT = 3 if QUICK else len(PATTERN_NAMES)

#: orientations of one skeleton per reduction-ablation row.
BATCHES = {
    "triangle": [get_directed_pattern(n) for n in ("ffl", "transitive-triangle", "dcycle-3")],
    "c4": [
        DiPattern(4, [(0, 1), (1, 2), (2, 3), (3, 0)], name="c4-cycle"),
        DiPattern(4, [(0, 1), (2, 1), (2, 3), (0, 3)], name="c4-fan"),
        DiPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)], name="c4-paths"),
    ],
}

#: interleaved timing repeats per reduction-ablation arm.
REDUCTION_REPEATS = 5 if QUICK else 9

#: the reduction must beat independent counting on every batch.
REDUCTION_FLOOR = 1.0

#: the acceptance floor: the best fast path must beat the interpreter
#: by this geomean factor across the directed catalog suite.
SPEEDUP_FLOOR = 3.0


def bench_digraph():
    """The bench proxy under a seeded random orientation.

    wiki-vote is a directed dataset served undirected by the loader;
    the seeded coin per edge restores arc data deterministically (and,
    unlike a low-to-high orientation, keeps directed cycles).
    """
    ug = bench_graph(DATASET)
    rng = np.random.default_rng(ORIENTATION_SEED)
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in ug.edges()]
    return digraph_from_edges(
        arcs, n_vertices=ug.n_vertices, name=f"{DATASET}-directed"
    )


def run_directed_bench() -> dict:
    graph = bench_digraph()
    records: dict[str, dict] = {}

    for pname in PATTERN_NAMES[:PATTERN_LIMIT]:
        pattern = get_directed_pattern(pname)
        # One IEP-free plan per pattern; every backend executes the same
        # chosen configuration, so differences are purely execution
        # strategy.
        report = DirectedMatcher(pattern).plan(graph, use_iep=False)
        ctx = MatchContext(graph=graph, plan=report.plan, mode="directed")
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
        records[pname] = {
            "n_vertices": pattern.n_vertices,
            "backends": row,
        }

    # --- reduction ablation: one shared core vs independent counts ---
    session = MatchSession(graph)
    reduction = {}
    for batch_name, patterns in BATCHES.items():
        queries = [MatchQuery(p) for p in patterns]
        # warm both arms' plan caches: the ablation compares execution.
        grouped = session.count_many(queries, reduce=True)
        single = session.count_many(queries, reduce=False)
        assert [r.count for r in grouped] == [r.count for r in single], (
            f"reduction and independent counts diverged on {batch_name}"
        )
        assert all(r.backend == "reduction" for r in grouped)
        samples = {True: [], False: []}
        for _ in range(REDUCTION_REPEATS):
            for reduce in samples:
                seconds, _ = time_call(session.count_many, queries, reduce=reduce)
                samples[reduce].append(seconds)
        sec_grouped = float(np.median(samples[True]))
        sec_single = float(np.median(samples[False]))
        reduction[batch_name] = {
            "batch": [p.name for p in patterns],
            "counts": [r.count for r in grouped],
            "repeats": REDUCTION_REPEATS,
            "seconds_grouped": sec_grouped,
            "seconds_per_pattern": sec_single,
            "speedup": sec_single / sec_grouped if sec_grouped else float("inf"),
        }

    return {
        "graph": repr(graph),
        "dataset": DATASET,
        "quick": QUICK,
        "patterns": records,
        "reduction_ablation": reduction,
    }


def _render(results: dict, capsys=None) -> dict:
    suffix = ", quick" if QUICK else ""
    table = Table(
        ["pattern", "count"]
        + [f"{b} (s)" for b in BACKENDS]
        + [f"{b} x" for b in BACKENDS[1:]],
        title=f"directed fast paths on {DATASET} proxy (directed catalog{suffix})",
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
    table.add_row(
        ["geomean", ""] + [""] * len(BACKENDS)
        + [format_speedup(summary[b]) for b in BACKENDS[1:]]
    )
    for batch_name, red in results["reduction_ablation"].items():
        table.add_row(
            [
                f"reduction ({batch_name})",
                "+".join(red["batch"]),
                format_seconds(red["seconds_per_pattern"]),
                format_seconds(red["seconds_grouped"]),
                "",
                format_speedup(red["speedup"]),
                "",
            ]
        )
    results["geomean_speedup_vs_interpreter"] = summary
    results["best_fast_path_geomean"] = max(summary.values())
    emit(table, capsys, "bench_directed.tsv")
    emit_json("BENCH_directed.json", results)
    return results


def check_floors(results: dict) -> None:
    floor = results["best_fast_path_geomean"]
    assert floor > SPEEDUP_FLOOR, (
        f"best directed fast-path geomean {floor:.2f}x below the "
        f"{SPEEDUP_FLOOR}x floor"
    )
    for batch_name, red in results["reduction_ablation"].items():
        assert red["speedup"] > REDUCTION_FLOOR, (
            f"reduction on the {batch_name} batch runs at {red['speedup']:.2f}x "
            f"independent counting, not above the {REDUCTION_FLOOR}x floor"
        )


def test_directed_comparison(benchmark, capsys):
    from _common import once

    results = once(benchmark, run_directed_bench)
    _render(results, capsys)
    check_floors(results)


if __name__ == "__main__":
    check_floors(_render(run_directed_bench()))

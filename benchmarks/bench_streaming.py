"""Streaming delta maintenance vs snapshot-recount-per-update.

The streaming subsystem's claim: maintaining exact pattern counts under
edge churn by anchored delta enumeration beats the only alternative the
repository previously had — freeze a snapshot and recount after every
update — by a wide margin, because a delta pass touches only the
embeddings through the updated edge while a recount touches the whole
graph.

The bench replays one deterministic mixed insert/delete churn sequence
per batch size (1 / 16 / 256) through a :class:`StreamSession` watching
the pattern suite, and compares against the strongest honest recount
baseline: the default counting path (the vectorised frontier engine)
replaying *warm* plans on each post-update snapshot (planning excluded
— only snapshot + execution are timed).  Recount cost per update is flat, so the baseline is
measured over the first ``RECOUNT_SAMPLE`` updates and extrapolated;
exactness is asserted separately by comparing every maintained count
against a full recount after each replay (the delta == recount gate the
CI smoke job runs in every mode).

Outputs: an aligned table, a TSV under ``benchmarks/results/`` and
``BENCH_streaming.json`` in the repo root with per-pattern timings and
the geomean speedups the acceptance floor is asserted on.
"""

from __future__ import annotations

import time

from repro.core.backend import select_backend
from repro.core.session import MatchSession
from repro.graph.dynamic import DynamicGraph
from repro.pattern.catalog import house, rectangle, triangle
from repro.streaming import StreamSession, random_churn
from repro.utils.tables import Table, format_seconds, format_speedup

from _common import QUICK, bench_graph, emit, emit_json, geomean

DATASET = "wiki-vote"
SCALE = 0.08 if QUICK else 0.15

PATTERNS = {"triangle": triangle, "rectangle": rectangle, "house": house}

#: updates replayed per batch-size configuration (the 256 batch needs a
#: sequence at least that long to fill one batch).
N_UPDATES = 64 if QUICK else 256
BATCH_SIZES = [1, 16, 64] if QUICK else [1, 16, 256]

#: recount baseline: measured over this many updates, extrapolated.
RECOUNT_SAMPLE = 8 if QUICK else 32

#: the acceptance floor — delta maintenance must beat
#: snapshot-recount-per-update by this factor (geomean over patterns)
#: at batch size 1.  Quick mode shrinks the graph, which shrinks the
#: recount the baseline pays, hence the lower floor.
SPEEDUP_FLOOR = 3.0 if QUICK else 5.0

CHURN_SEED = 2020


def time_delta(base, updates, batch_size):
    """(seconds, final maintained counts, verified) for one replay."""
    stream = StreamSession(DynamicGraph.from_graph(base))
    for name, builder in PATTERNS.items():
        stream.watch(builder(), name=name)
    t0 = time.perf_counter()
    for start in range(0, len(updates), batch_size):
        stream.apply(updates[start : start + batch_size])
    seconds = time.perf_counter() - t0
    counts = stream.counts()
    # the exactness gate: maintained == full recount, every pattern.
    expected = stream.expected_counts()
    assert counts == expected, (counts, expected)
    return seconds, counts


def time_recount_baseline(base, updates, sample):
    """(seconds for `sample` snapshot+recount updates, backend name).

    The strongest honest baseline: plans are prepared once on the
    initial graph and executed by the backend the default selection
    picks for them, so the measured cost is pure snapshot freeze +
    default-path execution per update — what a service without delta
    maintenance would pay at best.
    """
    session = MatchSession(base)
    entries = [session.plan_for(builder()) for builder in PATTERNS.values()]
    backend = select_backend(entries[0].context(base))
    dyn = DynamicGraph.from_graph(base)
    t0 = time.perf_counter()
    for up in updates[:sample]:
        if up.is_insert:
            dyn.add_edge(up.u, up.v)
        else:
            dyn.remove_edge(up.u, up.v)
        snap = dyn.snapshot()
        for entry in entries:
            backend.count(entry.context(snap))
    return time.perf_counter() - t0, backend.name


def run_streaming_bench() -> dict:
    base = bench_graph(DATASET, scale=SCALE)
    updates = random_churn(base, N_UPDATES, seed=CHURN_SEED)
    recount_sample_s, recount_backend = time_recount_baseline(
        base, updates, RECOUNT_SAMPLE
    )
    recount_per_update = recount_sample_s / RECOUNT_SAMPLE
    recount_total = recount_per_update * len(updates)

    rows = {}
    for batch_size in BATCH_SIZES:
        delta_s, counts = time_delta(base, updates, batch_size)
        rows[str(batch_size)] = {
            "batch_size": batch_size,
            "delta_seconds": delta_s,
            "recount_seconds_extrapolated": recount_total,
            "speedup": recount_total / delta_s if delta_s else float("inf"),
            "final_counts": counts,
        }
    return {
        "graph": repr(base),
        "dataset": DATASET,
        "scale": SCALE,
        "quick": QUICK,
        "n_updates": len(updates),
        "recount_sample": RECOUNT_SAMPLE,
        "recount_backend": recount_backend,
        "recount_seconds_per_update": recount_per_update,
        "patterns": sorted(PATTERNS),
        "batches": rows,
        "speedup_floor": SPEEDUP_FLOOR,
    }


def _render(results: dict, capsys=None) -> dict:
    suffix = ", quick" if QUICK else ""
    table = Table(
        ["batch", "delta total", "delta/update", "recount/update", "speedup"],
        title=(
            f"delta maintenance vs snapshot-recount-per-update on {DATASET} "
            f"proxy ({results['n_updates']} updates, "
            f"{len(results['patterns'])} watched patterns{suffix})"
        ),
    )
    n = results["n_updates"]
    for row in results["batches"].values():
        table.add_row([
            row["batch_size"],
            format_seconds(row["delta_seconds"]),
            format_seconds(row["delta_seconds"] / n),
            format_seconds(results["recount_seconds_per_update"]),
            format_speedup(row["speedup"]),
        ])
    results["geomean_speedup"] = geomean(
        [row["speedup"] for row in results["batches"].values()]
    )
    results["speedup_batch_1"] = results["batches"]["1"]["speedup"]
    table.add_row(["geomean", "", "", "", format_speedup(results["geomean_speedup"])])
    emit(table, capsys, "bench_streaming.tsv")
    emit_json("BENCH_streaming.json", results)
    return results


def _assert_floors(results: dict) -> None:
    for row in results["batches"].values():
        assert row["speedup"] > SPEEDUP_FLOOR, (
            f"delta maintenance speedup {row['speedup']:.2f}x at batch size "
            f"{row['batch_size']} is below the {SPEEDUP_FLOOR}x floor"
        )


def test_streaming_maintenance(benchmark, capsys):
    from _common import once

    results = once(benchmark, run_streaming_bench)
    _render(results, capsys)
    _assert_floors(results)


if __name__ == "__main__":
    _assert_floors(_render(run_streaming_bench()))

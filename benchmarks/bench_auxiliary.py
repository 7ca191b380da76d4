"""Auxiliary-graph pruning ablation: the frontier engine with and without
scratch-CSR candidate pools.

GraphMini's observation, applied to our vectorised backend: at a loop
depth whose dependency columns repeat across the frontier (or nest into
the next depth's), the direct path re-gathers and re-intersects the same
hub adjacency rows for every sibling row.  ``FrontierEngine(aux=...)``
ablates the fix:

* ``aux=False`` — the pre-pruning engine (the "current vectorised
  path"): every depth windows and gathers full CSR rows;
* ``aux=True`` — pruning forced wherever structurally possible (group
  dedup + pool chaining, cost gate and frontier-size guard bypassed);
* ``aux="auto"`` — the shipped configuration: the DegreeStats cost
  model decides per depth (dense prefixes materialise, sparse prefixes
  keep the direct path).

The suite splits the catalog accordingly: *dense* patterns (cliques,
house, near-clique-7, prism-chord) have multi-dependency depths whose
pools chain or dedup, *sparse* ones (pentagon, rectangle) have
single-dependency middle depths where pruning never applies — there the
gate must stay out of the way (no regression beyond noise).

Every measured pattern asserts that all three engines return identical
counts (the correctness gate CI runs even in quick mode).  Outputs: an
aligned table, ``benchmarks/results/bench_auxiliary.tsv`` and
``BENCH_auxiliary.json`` with per-pattern seconds and the dense/sparse
geomean ratios the acceptance criteria read.
"""

from __future__ import annotations

from repro.core.backend import MatchContext, get_backend
from repro.pattern.catalog import get_pattern
from repro.utils.tables import Table, format_seconds, format_speedup

from _common import QUICK, bench_graph, emit, emit_json, geomean, plan_report, time_call

DATASET = "wiki-vote"

#: multi-dependency depths throughout: pools chain (cliques) or dedup
#: (house's {1,2} depth) — the regime pruning exists for.
DENSE_PATTERNS = ["clique-4", "clique-5", "house", "near-clique-7", "prism-chord"]

#: single-dependency middle depths: no pool is ever worth building, the
#: cost gate must keep the direct path (regression guard).
SPARSE_PATTERNS = ["pentagon", "rectangle"]

#: the aux knob settings measured, ablation baseline first.
VARIANTS = [False, True, "auto"]
VARIANT_NAMES = {False: "direct", True: "forced", "auto": "auto"}

#: acceptance floors (full runs; the quick smoke graph is too small for
#: stable timing, so quick mode asserts counts only): the cost-gated
#: engine must beat the direct path by >= 1.3x geomean on the dense
#: patterns and never regress the sparse ones by more than 5%.
DENSE_GEOMEAN_FLOOR = 1.3
SPARSE_REGRESSION_FLOOR = 0.95

#: quick mode trims to one dense + one sparse pattern.
PATTERNS = (
    (["clique-4"], ["rectangle"])
    if QUICK
    else (DENSE_PATTERNS, SPARSE_PATTERNS)
)

#: best-of-N timing per (pattern, variant): the sub-second workloads
#: here are allocator/GC-noise sensitive, and the sparse regression
#: floor is a 5% band — min-of-reps is the stable estimator.
REPS = 1 if QUICK else 3


def _best_of(fn, *args) -> tuple[float, object]:
    best, result = time_call(fn, *args)
    for _ in range(REPS - 1):
        seconds, again = time_call(fn, *args)
        assert again == result
        best = min(best, seconds)
    return best, result


def run_auxiliary_bench() -> dict:
    graph = bench_graph(DATASET)
    dense, sparse = PATTERNS
    records: dict[str, dict] = {}

    for pname in dense + sparse:
        pattern = get_pattern(pname)
        # One IEP-free plan per pattern; every variant executes the same
        # chosen configuration, so differences are purely the pruning.
        report = plan_report(graph, pattern, use_iep=False, max_restriction_sets=16)
        ctx = MatchContext(graph=graph, plan=report.plan)
        row: dict[str, dict] = {}
        baseline = expected = None
        for variant in VARIANTS:
            backend = get_backend("vectorised", aux=variant)
            seconds, count = _best_of(backend.count, ctx)
            if baseline is None:
                baseline, expected = seconds, count
            else:
                # the correctness gate: aux-pruned counts must equal the
                # unpruned vectorised counts on every measured pattern.
                assert count == expected, (pname, variant, count, expected)
            row[VARIANT_NAMES[variant]] = {
                "seconds": seconds,
                "count": int(count),
                "speedup_vs_direct": baseline / seconds if seconds else float("inf"),
            }
        records[pname] = {
            "n_vertices": pattern.n_vertices,
            "dense": pname in dense,
            "variants": row,
        }
    return {
        "graph": repr(graph),
        "dataset": DATASET,
        "quick": QUICK,
        "patterns": records,
    }


def _ratios(results: dict, dense: bool) -> list[float]:
    return [
        rec["variants"]["auto"]["speedup_vs_direct"]
        for rec in results["patterns"].values()
        if rec["dense"] is dense
    ]


def _render(results: dict, capsys=None) -> dict:
    suffix = ", quick" if QUICK else ""
    names = [VARIANT_NAMES[v] for v in VARIANTS]
    table = Table(
        ["pattern", "set", "count"]
        + [f"{n} (s)" for n in names]
        + [f"{n} x" for n in names[1:]],
        title=f"auxiliary-graph pruning ablation on {DATASET} proxy{suffix}",
    )
    for pname, rec in results["patterns"].items():
        row = rec["variants"]
        cells = [pname, "dense" if rec["dense"] else "sparse", row["direct"]["count"]]
        cells += [format_seconds(row[n]["seconds"]) for n in names]
        cells += [format_speedup(row[n]["speedup_vs_direct"]) for n in names[1:]]
        table.add_row(cells)
    dense_geo = geomean(_ratios(results, dense=True))
    sparse_geo = geomean(_ratios(results, dense=False))
    table.add_row(
        ["geomean (dense, auto)", "", ""] + [""] * len(names)
        + ["", format_speedup(dense_geo)]
    )
    results["geomean_auto_vs_direct_dense"] = dense_geo
    results["geomean_auto_vs_direct_sparse"] = sparse_geo
    results["sparse_worst_ratio"] = (
        min(_ratios(results, dense=False)) if _ratios(results, dense=False) else 0.0
    )
    emit(table, capsys, "bench_auxiliary.tsv")
    emit_json("BENCH_auxiliary.json", results)
    return results


def _assert_floors(results: dict) -> None:
    """The perf acceptance criteria — full runs only (the quick smoke
    graph is seconds-scale noise; counts are asserted in every mode)."""
    if QUICK:
        return
    dense_geo = results["geomean_auto_vs_direct_dense"]
    assert dense_geo >= DENSE_GEOMEAN_FLOOR, (
        f"aux-pruned geomean {dense_geo:.2f}x on dense patterns is below "
        f"the {DENSE_GEOMEAN_FLOOR}x floor"
    )
    worst = results["sparse_worst_ratio"]
    assert worst >= SPARSE_REGRESSION_FLOOR, (
        f"cost gate let a sparse pattern regress to {worst:.2f}x "
        f"(floor {SPARSE_REGRESSION_FLOOR}x)"
    )


def test_auxiliary_ablation(benchmark, capsys):
    from _common import once

    results = once(benchmark, run_auxiliary_bench)
    _render(results, capsys)
    _assert_floors(results)


if __name__ == "__main__":
    results = _render(run_auxiliary_bench())
    _assert_floors(results)
    print(
        f"dense geomean (auto vs direct): "
        f"{results['geomean_auto_vs_direct_dense']:.2f}x; "
        f"sparse worst ratio: {results['sparse_worst_ratio']:.2f}x"
    )

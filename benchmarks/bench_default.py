"""Default-selection bench: the planner's no-preference default vs every knob.

GraphPi's performance model chooses the configuration (§IV-C); a query
with no backend preference runs the plan it picks on the first backend
that supports it.  This bench checks that nothing a user could set by
hand beats that default by much: per workload it times the default
against every ``vectorised`` setting of auxiliary pruning
(``aux`` in ``"auto"``, ``False``, ``True``) crossed with the IEP knob
(``use_iep`` on and off), all on warm plan caches and interleaved —
each repeat times every variant once, so host drift hits all of them
alike — and compares medians.

Floors (asserted here and therefore in the CI bench-smoke job):

* ``geomean(best / default) >= 0.9`` — the default costs at most ~10%
  geomean over an oracle pick of the knobs;
* every workload's default within 1.3x of its best setting.

Every variant's count is asserted equal to the default's.  Outputs:
aligned table, ``benchmarks/results/bench_default.tsv`` and
``BENCH_default.json``.  Schema notes live in ``docs/benchmarks.md``.
"""

from __future__ import annotations

from functools import partial

from repro.core.backend import get_backend
from repro.core.query import MatchQuery
from repro.core.session import MatchSession
from repro.pattern.catalog import get_pattern
from repro.utils.tables import Table, format_seconds

from _common import QUICK, bench_graph, emit, emit_json, geomean, interleaved

#: (dataset, patterns) cells; quick mode trims both axes.
WORKLOADS = (
    [("wiki-vote", ["triangle", "clique-4", "rectangle"])]
    if QUICK
    else [
        ("wiki-vote", ["triangle", "rectangle", "clique-4", "pentagon", "house"]),
        ("mico", ["triangle", "clique-4", "house"]),
    ]
)

#: interleaved repeats per variant; the median is reported.
REPS = 9

#: the knob settings timed against the default: (label, aux, use_iep).
SETTINGS = [
    (f"vectorised(aux={aux}) iep={'on' if iep else 'off'}", aux, iep)
    for aux in ("auto", False, True)
    for iep in (True, False)
]

GEOMEAN_FLOOR = 0.9
WORKLOAD_CEILING = 1.3


def _variants(pattern) -> dict[str, MatchQuery]:
    variants = {"default": MatchQuery(pattern)}
    for label, aux, iep in SETTINGS:
        variants[label] = MatchQuery(
            pattern, backend=get_backend("vectorised", aux=aux), use_iep=iep
        )
    return variants


def _time_workload(graph, pattern) -> dict:
    session = MatchSession(graph)

    def timed(query):
        result = session.count(query)
        return result.seconds_execute, result

    calls = {name: partial(timed, query) for name, query in _variants(pattern).items()}
    for call in calls.values():
        call()  # warm every plan
    timings = interleaved(calls, REPS)
    default_seconds, _, default = timings["default"]
    for name, (_, _, result) in timings.items():
        assert int(result) == int(default), (pattern.name, name, int(result), int(default))
    best = min((name for name in timings if name != "default"), key=lambda n: timings[n][0])
    return {
        "count": int(default),
        "default_backend": default.backend,
        "default_iep_k": session.plan_for(MatchQuery(pattern)).plan.iep_k,
        "default_seconds": default_seconds,
        "best_setting": best,
        "best_seconds": timings[best][0],
        "ratio_best_over_default": timings[best][0] / default_seconds,
        "median_seconds": {name: t[0] for name, t in timings.items()},
        "iqr_seconds": {name: t[1] for name, t in timings.items()},
    }


def run_default_bench() -> dict:
    records = {}
    for dataset, patterns in WORKLOADS:
        graph = bench_graph(dataset)
        for pname in patterns:
            records[f"{dataset}/{pname}"] = _time_workload(graph, get_pattern(pname))
    return {"quick": QUICK, "reps": REPS, "workloads": records}


def _render(results: dict, capsys=None) -> dict:
    suffix = ", quick" if QUICK else ""
    table = Table(
        ["workload", "count", "default (s)", "best setting", "best (s)", "best/default"],
        title=f"planner default vs every vectorised knob setting{suffix}",
    )
    for name, rec in results["workloads"].items():
        table.add_row([
            name,
            rec["count"],
            format_seconds(rec["default_seconds"]),
            rec["best_setting"],
            format_seconds(rec["best_seconds"]),
            f"{rec['ratio_best_over_default']:.2f}x",
        ])
    ratios = [r["ratio_best_over_default"] for r in results["workloads"].values()]
    results["geomean_best_over_default"] = geomean(ratios)
    results["geomean_floor"] = GEOMEAN_FLOOR
    results["workload_ceiling"] = WORKLOAD_CEILING
    table.add_row(["geomean", "", "", "", "", f"{results['geomean_best_over_default']:.2f}x"])
    emit(table, capsys, "bench_default.tsv")
    emit_json("BENCH_default.json", results)
    return results


def _assert_floors(results: dict) -> None:
    geo = results["geomean_best_over_default"]
    assert geo >= GEOMEAN_FLOOR, (
        f"the default runs at {geo:.2f}x the best knob setting (geomean), "
        f"below the {GEOMEAN_FLOOR}x floor"
    )
    for name, rec in results["workloads"].items():
        slower = rec["default_seconds"] / rec["best_seconds"]
        assert slower <= WORKLOAD_CEILING, (
            f"{name}: the default is {slower:.2f}x slower than "
            f"{rec['best_setting']} (ceiling {WORKLOAD_CEILING}x)"
        )


def test_default_selection(benchmark, capsys):
    from _common import once

    results = once(benchmark, run_default_bench)
    _render(results, capsys)
    _assert_floors(results)


if __name__ == "__main__":
    results = _render(run_default_bench())
    _assert_floors(results)
    print(
        f"geomean best/default: {results['geomean_best_over_default']:.2f}x "
        f"(floor {GEOMEAN_FLOOR}x); every workload within {WORKLOAD_CEILING}x"
    )

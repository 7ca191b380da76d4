"""Injected-slowdown self-check: the benchmark flags a slower layer on the
workload built to load it, and only there.

A ~20% slowdown is installed at runtime (``layers.slowed``) in

* ``CompiledBackend.count``: fig8-warm ``plain_s`` and
  ``core.session.execute_s`` must grow beyond the ``plain_s`` bound, and
  plan-cold ``core.perf_model.s`` must stay inside it;
* ``PerformanceModel.rank``: plan-cold ``core.perf_model.s`` must grow
  beyond the bound, and fig8-warm ``plain_s`` and
  ``core.session.execute_s`` must stay inside it.

Baseline and slowed passes alternate on one set-up, each side first in
turn, so both see the same host.  Run from the repository root (about three minutes)::

    python3 -m pytest perfbench/test_sensitivity.py -q
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from layers import LayerClock, clocked_layers, slowed  # noqa: E402
from run import better_half  # noqa: E402
from workloads import Fig8Warm, PlanCold, Tally  # noqa: E402

FACTOR = 0.2
PAIRS = 6
SEED = 7
SLOWDOWNS = {
    "compiled": ("repro.core.backend", "CompiledBackend", "count", FACTOR),
    "rank": ("repro.core.perf_model", "PerformanceModel", "rank", FACTOR),
}


def bound() -> float:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == "plain_s")


def growth(workload_cls, slowdown: str) -> dict[str, float]:
    """Slowed over baseline, minus one, per metric: the better half of
    each side's passes, as the benchmark itself reports them."""
    workload = workload_cls()
    workload.setup(SEED)
    sides: dict[bool, list[dict[str, float]]] = {False: [], True: []}
    try:
        for pair in range(PAIRS):
            for slow in (pair % 2 == 1, pair % 2 == 0):
                clock = LayerClock()
                tally = Tally()
                start = time.perf_counter()
                with slowed(*SLOWDOWNS[slowdown]) if slow else nullcontext():
                    with clocked_layers(clock):
                        workload.run_pass(tally)
                # the host's slowdown over the pass: layer clocks read wall
                # time, request times are already at nominal speed
                host = (time.perf_counter() - start) / tally.busy
                assert not tally.failures, tally.failures
                sides[slow].append(
                    {
                        "plain_s": tally.mode_seconds["plain"],
                        "core.session.execute_s": clock.values["core.session.execute_s"] / host,
                        "core.perf_model.s": clock.values["core.perf_model.s"] / host,
                    }
                )
    finally:
        workload.close()
    out = {}
    for metric in sides[False][0]:
        base = better_half(p[metric] for p in sides[False])
        if base > 0:
            out[metric] = better_half(p[metric] for p in sides[True]) / base - 1
    return out


def test_compiled_kernel_slowdown_is_flagged_on_fig8_warm_only():
    limit = bound()
    assert limit < FACTOR
    warm = growth(Fig8Warm, "compiled")
    print("compiled slowdown, fig8-warm growth:", warm)
    assert warm["plain_s"] > limit, warm
    assert warm["core.session.execute_s"] > limit, warm
    cold = growth(PlanCold, "compiled")
    print("compiled slowdown, plan-cold growth:", cold)
    assert abs(cold["core.perf_model.s"]) < limit, cold


def test_model_ranking_slowdown_is_flagged_on_plan_cold_only():
    limit = bound()
    cold = growth(PlanCold, "rank")
    print("rank slowdown, plan-cold growth:", cold)
    assert cold["core.perf_model.s"] > limit, cold
    warm = growth(Fig8Warm, "rank")
    print("rank slowdown, fig8-warm growth:", warm)
    assert abs(warm["plain_s"]) < limit, warm
    assert abs(warm["core.session.execute_s"]) < limit, warm

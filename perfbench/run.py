"""Benchmark entry point; run it from the repository root::

    python3 perfbench/run.py --workload fig8-warm --seed 1 --seconds 30 --trace 0

Sets the workload up at least three times (``setup_s`` is the median), then runs
measured passes until ``--seconds`` is spent.  Between passes it times a
``python -m repro`` run of the same kind in a fresh process.  With
``--trace 1`` it skips those runs and ends with one extra pass with every
layer clock installed (see ``layers.py``).  Correctness checks run outside
the timed window.

Prints an environment stamp, then as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric named in ``BENCHMARK.json`` (``--trace 0``) or every
per-layer one (``--trace 1``), each as ``{"value": ..., "unit": ...}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-up runs at least this many times and for at least this long.
SETUP_REPEATS = 3
MODES = ("plain", "induced", "labeled", "directed")
SETUP_SECONDS = 0.5
MIN_PASSES = 3
CLI_RUNS = 6
CLI_TIMEOUT = 120


def catalog(trace: bool) -> dict[str, str]:
    """Metric name -> unit, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment(workload: str, seed: int) -> dict:
    import numpy

    sha = None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "git_sha": sha,
        "src_sha1": digest.hexdigest(),
    }


def run_cli(workload, workdir: Path) -> tuple[float, str | None]:
    """Time one ``python -m repro`` run; returns ``(seconds, failure)``."""
    from repro.graph.io import save_edge_list
    from workloads import timed

    edges = workdir / f"{workload.name}.edges"
    if not edges.exists():
        save_edge_list(workload.graph, edges)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "repro", *workload.cli_args(edges)]
    try:
        proc, seconds = timed(
            lambda: subprocess.run(
                argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT
            )
        )
    except subprocess.TimeoutExpired:
        return CLI_TIMEOUT, f"cli timed out: {' '.join(argv[2:])}"
    if proc.returncode != 0 or not workload.cli_check(proc.stdout):
        return seconds, f"cli failed ({proc.returncode}): {proc.stderr.strip()[-300:]}"
    return seconds, None


def better_half(values, *, higher: bool = False) -> float:
    """Mean of the better half of per-pass values.

    Interference from other tenants of a shared host only ever makes a
    pass slower, so the better half of a run's passes estimates the
    program's own cost more steadily than their median does.
    """
    ordered = sorted(values, reverse=higher)
    return statistics.fmean(ordered[: max(1, len(ordered) // 2)])


def pass_metrics(passes) -> dict[str, float]:
    """End-to-end metrics of passes that each repeat the same requests."""
    values = {
        "p50_s": better_half(statistics.median(p.latencies) for p in passes),
        "p90_s": better_half(statistics.quantiles(p.latencies, n=10)[-1] for p in passes),
        "qps": better_half((len(p.latencies) / p.busy for p in passes), higher=True),
    }
    for mode in MODES:
        values[f"{mode}_s"] = better_half(p.mode_seconds[mode] for p in passes)
    return values


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run one workload; returns the result record (without env stamp)."""
    from layers import LayerClock, clocked_layers
    from repro.obs import metrics as obs_metrics
    from workloads import WORKLOADS, Tally, timed

    workload = WORKLOADS[name]()
    setups: list[float] = []
    passes: list[Tally] = []
    clis: list[tuple[float, str | None]] = []
    try:
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            workload.close()
            setups.append(timed(lambda: workload.setup(seed))[1])

        begin = time.perf_counter()
        while True:
            tally = Tally()
            start = time.perf_counter()
            workload.run_pass(tally)
            tally.wall = time.perf_counter() - start
            passes.append(tally)
            if not trace and len(clis) < CLI_RUNS:
                clis.append(run_cli(workload, workdir))
            typical = statistics.median(p.wall for p in passes)
            if trace:
                typical *= 2  # the next pass plus the traced one
            elif len(clis) < CLI_RUNS:
                typical += statistics.median(s for s, _ in clis)
            if len(passes) >= MIN_PASSES and time.perf_counter() - begin + typical > seconds:
                break

        traced = None
        if trace:
            clock = LayerClock()
            hits = obs_metrics.PLAN_CACHE_HITS.value
            misses = obs_metrics.PLAN_CACHE_MISSES.value
            service = getattr(workload, "service", None)
            before = service.stats() if service is not None else None
            served_before = len(getattr(workload, "served", ()))
            traced = Tally()
            start = time.perf_counter()
            with clocked_layers(clock):
                workload.run_pass(traced)
            traced.wall = time.perf_counter() - start
            layer = dict(clock.values)
            layer["core.session.plan_hits"] = obs_metrics.PLAN_CACHE_HITS.value - hits
            layer["core.session.plan_misses"] = obs_metrics.PLAN_CACHE_MISSES.value - misses
            if service is not None:
                layer.update(_serving_layers(workload, before, served_before))

        verify_errors = workload.verify()
    finally:
        workload.close()

    everything = passes + ([traced] if traced is not None else [])
    failures = [f for p in everything for f in p.failures]
    failures += [f for _, f in clis if f is not None] + verify_errors
    record = {
        "correct": not failures,
        "attempted": sum(p.answers for p in everything) + len(clis),
        "failed": len(failures),
        "failures": failures[:20],
    }
    walls = [p.wall for p in passes]
    if not trace:
        values = pass_metrics(passes)
        values["setup_s"] = statistics.median(setups)
        values["cli_s"] = better_half(s for s, _ in clis)
    else:
        values = layer
        values["graph.build_s"] = statistics.median(workload.build_times)
        values["match.embeddings"] = traced.embeddings
        values["trace.pass_s"] = traced.wall
        values["trace.overhead_ratio"] = traced.wall / statistics.median(walls)
        values["core.backend.reduction.queries"] = traced.reduced
        for qid, secs in traced.execute_seconds.items():
            values[f"query.{qid}.execute_s"] = secs
    units = catalog(trace)
    record["metrics"] = {
        metric: {"value": float(values.get(metric, 0.0)), "unit": unit}
        for metric, unit in units.items()
    }
    return record


def _serving_layers(workload, before, served_before: int) -> dict[str, float]:
    """Service counters over the traced segment (deltas of ``stats()``)."""
    after = workload.service.stats()
    hits = after.memo.hits - before.memo.hits
    misses = after.memo.misses - before.memo.misses
    collapsed = after.memo.collapsed - before.memo.collapsed
    waits = [
        handle.queue_seconds
        for _, handle in workload.served[served_before:]
        if handle.queue_seconds > 0
    ]
    return {
        "serving.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
        "serving.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.memo_collapsed": collapsed,
        "serving.executed": (after.completed - before.completed) - hits - collapsed,
        "serving.rejected": after.rejected - before.rejected,
        "serving.churn_p50_s": statistics.median(workload.churns) if workload.churns else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    print(json.dumps({"env": environment(args.workload, args.seed)}), flush=True)
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in record.pop("failures"):
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

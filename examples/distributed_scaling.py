#!/usr/bin/env python
"""Distributed pattern matching: real cores + simulated cluster (§IV-E).

Demonstrates all three runtime layers:

1. sequential master/worker task partitioning on the interpreter
   (the reference, at split depth 2),
2. real multiprocessing across local cores: worker processes count
   root-range tasks on the frontier engine,
3. the event-driven cluster simulator replaying *measured* task costs
   at Tianhe-2A scale (24 threads/node, MPI-style work stealing) — the
   machinery behind the Figure 12 reproduction,
4. the `distributed` execution backend, which folds steps 1+3 into the
   unified query seam: one `MatchQuery` call returns the exact count
   *and* the simulated scaling profile.

Run:  python examples/distributed_scaling.py
"""

import numpy as np

from repro import (
    MatchQuery,
    get_backend,
    get_pattern,
    get_session,
    load_dataset,
    match_query,
)
from repro.runtime.cluster import scaling_curve
from repro.runtime.parallel import measure_task_costs, parallel_count
from repro.runtime.tasks import run_partitioned
from repro.utils.tables import Table, format_seconds


def main() -> None:
    graph = load_dataset("orkut", scale=0.08, seed=13)
    pattern = get_pattern("house")
    print(f"pattern {pattern.name!r} on {graph}\n")

    plan = get_session(graph).plan_for(MatchQuery(pattern, use_iep=False)).plan

    # 1. Sequential master/worker partitioning.
    total, parts = run_partitioned(graph, plan, split_depth=2)
    sizes = sorted(c for _, c in parts)
    print(f"sequential partitioned count: {total} over {len(parts)} tasks")
    print(f"task skew: median={sizes[len(sizes) // 2]}, max={sizes[-1]} "
          "(power-law degrees -> imbalanced tasks, the §IV-E motivation)\n")

    # 2. Real multiprocessing.
    result = parallel_count(graph, plan, n_workers=2)
    assert result.count == total
    print(f"multiprocessing ({result.n_workers} workers, {result.n_tasks} root tasks "
          f"on {result.executor}): count={result.count}\n")

    # 3. Simulated cluster at paper scale.
    costs = np.asarray(measure_task_costs(graph, plan, split_depth=2))
    print(f"measured {len(costs)} task costs "
          f"(total {costs.sum():.2f} s, max {costs.max() * 1e3:.1f} ms)")
    table = Table(
        ["nodes", "cores", "simulated time", "speedup", "efficiency", "steals"],
        title="simulated scaling (24 threads/node, work stealing)",
    )
    node_counts = [1, 2, 4, 8, 16, 32, 64, 128]
    results = scaling_curve(costs, node_counts, threads_per_node=24)
    base = results[0].makespan
    for n, r in zip(node_counts, results):
        table.add_row(
            [n, n * 24, format_seconds(r.makespan), f"{base / r.makespan:.1f}x",
             f"{r.efficiency * 100:.0f}%", r.steals]
        )
    print(table.render())
    print("\nNear-linear until per-node work runs out — the Figure 12 shape.")

    # 4. The same study through the unified backend seam: the session
    #    plans for the backend's capabilities, the same root-range
    #    tasks are counted for real in process, and the measured costs replay
    #    through the simulator — one call, count + profile.
    backend = get_backend(
        "distributed", node_counts=(1, 4, 16, 64), threads_per_node=4
    )
    res = match_query(graph, MatchQuery(pattern, backend=backend))
    rep = res.distributed_report
    assert res.count == total
    print(f"\nbackend seam: count={res.count} via backend={res.backend!r}")
    print(f"  {rep.describe()}")


if __name__ == "__main__":
    main()

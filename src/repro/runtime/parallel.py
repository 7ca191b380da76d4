"""Real shared-memory parallel execution (the single-node OpenMP analogue).

GraphPi runs 1 MPI process × 24 OpenMP threads per node.  The Python
analogue for one node is a ``multiprocessing`` pool of workers pulling
root-range tasks from the master (:mod:`repro.runtime.tasks`, the same
tasks the ``distributed`` backend counts in process).  The graph and
plan are shipped once per worker (fork/initializer), which builds its
:func:`~repro.runtime.tasks.task_counter` there; tasks are root lists.
The task count follows from the worker count alone.

Python-specific honesty note: processes, not threads (the GIL would
serialise CPU-bound matching), and speedups are bounded by the host's
core count — the *cluster-scale* behaviour is studied with the
simulator in :mod:`repro.runtime.cluster`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.backend import MatchContext
from repro.core.engine import Engine, _as_plan
from repro.graph.csr import Graph
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.runtime.tasks import (
    choose_split_depth,
    generate_tasks,
    root_tasks,
    task_counter,
    task_executor,
)

#: root-range tasks per worker, dealt round-robin so that each task
#: mixes cheap and expensive roots; workers pull them one at a time.
TASKS_PER_WORKER = 8

# Worker-global task counter, installed by the pool initializer so that
# tasks only carry their root lists.
_worker_counter = None


def _init_worker(ctx: MatchContext) -> None:
    global _worker_counter
    _worker_counter, _ = task_counter(ctx)


def _run_task(roots: Sequence[int]) -> int:
    assert _worker_counter is not None, "worker pool not initialised"
    return _worker_counter(roots)


@dataclass(frozen=True)
class ParallelResult:
    count: int
    n_tasks: int
    n_workers: int
    #: what counted each task: ``"vectorised"`` or ``"interpreter"``.
    executor: str


def parallel_count_ctx(ctx: MatchContext, *, n_workers: int | None = None) -> ParallelResult:
    """Count a :class:`MatchContext` with a pool of worker processes.

    ``n_workers`` defaults to the host's CPU count.  Work that cannot
    keep two processes busy (fewer than two non-empty root tasks, or a
    pattern with more vertices than the graph) is counted in this
    process, with no pool.  Partial raw counts are summed and the IEP
    divisor applied once at the end — the same aggregation the
    distributed implementation performs.
    """
    workers = n_workers if n_workers is not None else os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {workers}")
    engine = Engine(ctx.graph, ctx.plan)
    tasks = root_tasks(engine, TASKS_PER_WORKER * workers, "cyclic")
    if len(tasks) < 2 or ctx.plan.n > ctx.graph.n_vertices:
        # One task cannot be shared, and a pattern larger than the graph
        # matches nothing: either way a pool would only cost its start-up.
        workers = 1
    executor = task_executor(ctx)
    # Master-side span only: spans opened inside pool workers live in
    # other processes and cannot attach to this trace.
    with span("pool", workers=workers, tasks=len(tasks), executor=executor):
        if workers == 1:
            counter, _ = task_counter(ctx)
            raw = sum(counter(roots) for roots in tasks)
        else:
            mp_ctx = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
            # A pre-generated kernel is an exec() product and does not
            # pickle under spawn; the workers never run it.
            ship = replace(ctx, generated=None)
            with mp_ctx.Pool(workers, initializer=_init_worker, initargs=(ship,)) as pool:
                raw = sum(pool.imap_unordered(_run_task, tasks))
    obs_metrics.PARALLEL_TASKS.inc(len(tasks))
    return ParallelResult(engine.finalize_count(raw), len(tasks), workers, executor)


def parallel_count(
    graph: Graph, plan_or_config, *, n_workers: int | None = None
) -> ParallelResult:
    """Count embeddings of a plain (undirected, unlabeled) plan in parallel.

    Thin wrapper building a plain :class:`MatchContext`; see
    :func:`parallel_count_ctx` for the general entry point the
    ``parallel`` backend uses.
    """
    ctx = MatchContext(graph=graph, plan=_as_plan(plan_or_config))
    return parallel_count_ctx(ctx, n_workers=n_workers)


def measure_task_costs(
    graph: Graph,
    plan_or_config,
    *,
    split_depth: int | None = None,
    limit: int | None = None,
) -> list[float]:
    """Wall-clock seconds per task, sequentially — the simulator's input.

    ``limit`` caps how many tasks are timed (the scaling benchmark uses
    a cap plus cost-model extrapolation for very large task sets).
    Measured on the interpreter engine at ``split_depth``: the cluster
    simulator models the distributed implementation's relative task
    skew, not kernel speed.
    """
    import time

    plan = _as_plan(plan_or_config)
    engine = Engine(graph, plan)
    depth = split_depth if split_depth is not None else choose_split_depth(plan)
    costs: list[float] = []
    for i, task in enumerate(generate_tasks(engine, depth)):
        if limit is not None and i >= limit:
            break
        start = time.perf_counter()
        engine.count_prefix(task.prefix)
        costs.append(time.perf_counter() - start)
    return costs

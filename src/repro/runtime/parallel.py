"""Real shared-memory parallel execution (the single-node OpenMP analogue).

GraphPi runs 1 MPI process × 24 OpenMP threads per node.  The Python
analogue for one node is a ``multiprocessing`` pool of workers pulling
prefix tasks from the master.  The graph and plan are shipped once per
worker (fork/initializer), not per task; tasks are tiny tuples.

Workers build their execution path through the backend registry
(:func:`repro.core.backend.make_prefix_counter`): by default each
worker compiles the specialised inner-loop kernel for its plan
(``worker_backend="compiled"``) and falls back to the interpreter
engine for contexts code generation does not cover (induced, labeled,
directed).  The master always interprets the outer loops — they are a
vanishing fraction of the work, and :meth:`Engine.iter_prefixes` already
applies outer restrictions so workers receive only viable prefixes.

Python-specific honesty note: processes, not threads (the GIL would
serialise CPU-bound matching), and speedups are bounded by the host's
core count — the *cluster-scale* behaviour is studied with the
simulator in :mod:`repro.runtime.cluster`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from dataclasses import dataclass, replace

from repro.core.backend import MatchContext, make_prefix_counter, plain_context
from repro.core.config import Configuration, ExecutionPlan
from repro.core.engine import Engine
from repro.graph.csr import Graph
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.runtime.tasks import Task, choose_split_depth, generate_tasks

# Worker-global prefix counter, installed by the pool initializer so
# that tasks only carry their prefix tuples.
_worker_counter = None


def _init_worker(ctx: MatchContext, split_depth: int, worker_backend: str) -> None:
    global _worker_counter
    _worker_counter, _ = make_prefix_counter(ctx, split_depth, worker_backend)


def _run_task(prefix: tuple[int, ...]) -> int:
    assert _worker_counter is not None, "worker pool not initialised"
    return _worker_counter(prefix)


@dataclass(frozen=True)
class ParallelResult:
    count: int
    n_tasks: int
    n_workers: int
    split_depth: int
    worker_backend: str = "interpreter"


def parallel_count_ctx(
    ctx: MatchContext,
    *,
    n_workers: int | None = None,
    split_depth: int | None = None,
    chunksize: int = 8,
    worker_backend: str = "compiled",
) -> ParallelResult:
    """Count a :class:`MatchContext` with a pool of worker processes.

    The master (this process) enumerates prefix tasks lazily and streams
    them to the pool; partial raw counts are summed and the IEP divisor
    applied once at the end — the same aggregation the distributed
    implementation performs.
    """
    engine = Engine(ctx.graph, ctx.plan)
    depth = split_depth if split_depth is not None else choose_split_depth(ctx.plan)
    workers = n_workers or max(1, (os.cpu_count() or 2))
    # Built once for the fallback name even on the pool path: what the
    # workers will actually run, post-fallback.
    counter, effective = make_prefix_counter(ctx, depth, worker_backend)

    tasks = (t.prefix for t in generate_tasks(engine, depth))
    if workers == 1:
        raw = 0
        n_tasks = 0
        with span("pool", workers=1, split_depth=depth) as sp:
            for p in tasks:
                raw += counter(p)
                n_tasks += 1
            sp.set(tasks=n_tasks)
        obs_metrics.PARALLEL_TASKS.inc(n_tasks)
        return ParallelResult(engine.finalize_count(raw), n_tasks, 1, depth, effective)

    mp_ctx = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
    n_tasks = 0
    raw = 0
    # A pre-generated kernel is an exec() product and does not pickle
    # under spawn; workers re-derive their own kernel anyway.
    ship = replace(ctx, generated=None)
    # Master-side span only: spans opened inside pool workers live in
    # other processes and cannot attach to this trace.
    with span("pool", workers=workers, split_depth=depth) as sp:
        with mp_ctx.Pool(
            workers, initializer=_init_worker, initargs=(ship, depth, worker_backend)
        ) as pool:
            for sub in pool.imap_unordered(_run_task, tasks, chunksize=chunksize):
                raw += sub
                n_tasks += 1
        sp.set(tasks=n_tasks)
    obs_metrics.PARALLEL_TASKS.inc(n_tasks)
    return ParallelResult(engine.finalize_count(raw), n_tasks, workers, depth, effective)


def parallel_count(
    graph: Graph,
    plan_or_config,
    *,
    n_workers: int | None = None,
    split_depth: int | None = None,
    chunksize: int = 8,
    worker_backend: str = "compiled",
) -> ParallelResult:
    """Count embeddings of a plain (undirected, unlabeled) plan in parallel.

    Thin wrapper building a plain :class:`MatchContext`; see
    :func:`parallel_count_ctx` for the general entry point the
    ``parallel`` backend uses.
    """
    if not isinstance(plan_or_config, (ExecutionPlan, Configuration)):
        raise TypeError("parallel_count expects an ExecutionPlan or Configuration")
    return parallel_count_ctx(
        plain_context(graph, plan_or_config),
        n_workers=n_workers,
        split_depth=split_depth,
        chunksize=chunksize,
        worker_backend=worker_backend,
    )


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
    Measured on the interpreter engine: the cluster simulator models the
    distributed implementation's relative task skew, not kernel speed.
    """
    import time

    ctx = plain_context(graph, plan_or_config)
    engine = Engine(ctx.graph, ctx.plan)
    depth = split_depth if split_depth is not None else choose_split_depth(ctx.plan)
    costs: list[float] = []
    for i, task in enumerate(generate_tasks(engine, depth)):
        if limit is not None and i >= limit:
            break
        start = time.perf_counter()
        engine.count_prefix(task.prefix)
        costs.append(time.perf_counter() - start)
    return costs

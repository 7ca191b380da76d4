"""The distributed execution backend: real counts, simulated cluster (Fig. 12).

GraphPi's headline scaling result is near-linear speedup to 1 024
Tianhe-2A nodes (24 576 cores, Figure 12).  We cannot run MPI here, but
the quantities the figure depends on are all available:

1. the **exact count** — the master enumerates the viable root vertices
   (``Engine.iter_prefixes(1)``, §IV-E's outer loop), partitions them
   into contiguous task ranges with the same
   :func:`~repro.runtime.worksteal.initial_distribution` the cluster
   uses for node queues, and an *inner* executor counts each range for
   real (default: one bulk :class:`~repro.core.vectorised.FrontierEngine`
   sweep per range);
2. the **per-task cost distribution** — each task's wall-clock seconds
   are measured while computing those real counts; power-law degree skew
   shows up here exactly as it does on the real cluster;
3. the **scaling profile** — the measured costs are replayed through the
   event-driven :class:`~repro.runtime.cluster.ClusterSimulator`
   (node-local queues, MPI-latency work stealing) at every requested
   node count.

So one ``count()`` call returns both the exact embedding count and a
Figure 12-shaped makespan/speedup curve, and because
:class:`DistributedBackend` is a registered
:class:`~repro.core.backend.ExecutionBackend`, the whole study runs
through the same ``count_pattern(..., backend=...)`` /
``MatchQuery``/``MatchSession`` seam as every other execution strategy —
the scaling curve rides on :attr:`~repro.core.query.MatchResult.
distributed_report`.

Honesty notes: the counts are real (the conformance suite pins them
against every other backend), the *times* are simulated from measured
single-process task costs — relative skew and scheduling behaviour are
faithful, absolute kernel speed is not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.backend import (
    IEP_MODES,
    INNER_BACKENDS,
    MODES,
    BackendCapabilities,
    ExecutionBackend,
    MatchContext,
    make_engine,
    make_prefix_counter,
    register_backend,
)
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.runtime.cluster import SimulationResult, scaling_curve
from repro.runtime.worksteal import StealPolicy, initial_distribution

#: node counts simulated per call unless overridden (Fig. 12's x-axis,
#: trimmed so a default ``backend="distributed"`` count stays snappy).
DEFAULT_NODE_COUNTS = (1, 2, 4, 8, 16, 32, 64)

#: granularity cap: at most this many root-range tasks by default.
DEFAULT_MAX_TASKS = 1024


def _check_inner(inner: str) -> None:
    if inner not in INNER_BACKENDS:
        raise ValueError(
            f"unsupported inner backend {inner!r}: the distributed "
            f"backend's per-task executors are {INNER_BACKENDS}"
        )


@dataclass(frozen=True)
class DistributedReport:
    """Everything one distributed execution produced.

    ``count`` is exact (same as any other backend); ``results`` holds
    one :class:`~repro.runtime.cluster.SimulationResult` per entry of
    ``node_counts``, replaying the measured ``task_seconds`` through the
    cluster simulator.  ``task_roots`` is populated only when the run
    was asked to record its partition (``record_tasks=True``) — the
    exactly-once tests use it.
    """

    count: int
    n_roots: int
    n_tasks: int
    inner_backend: str
    distribution: str
    split_depth: int
    threads_per_node: int
    node_counts: tuple[int, ...]
    results: tuple[SimulationResult, ...]
    task_seconds: tuple[float, ...]
    seconds_execute: float
    task_roots: tuple[tuple[int, ...], ...] | None = None

    @property
    def makespans(self) -> tuple[float, ...]:
        """Simulated seconds to drain all tasks, per node count."""
        return tuple(r.makespan for r in self.results)

    @property
    def speedups(self) -> tuple[float, ...]:
        """Makespan ratio vs the *first* simulated node count.

        With ``node_counts`` starting at 1 this is Figure 12's speedup
        axis; with another baseline it is relative scaling from there.
        """
        if not self.results:
            return ()
        base = self.results[0].makespan
        return tuple(
            base / r.makespan if r.makespan > 0 else float("inf")
            for r in self.results
        )

    @property
    def efficiencies(self) -> tuple[float, ...]:
        """Parallel efficiency vs the perfectly balanced ideal, per node count."""
        return tuple(r.efficiency for r in self.results)

    def describe(self) -> str:
        curve = ", ".join(
            f"{n}n:{s:.1f}x" for n, s in zip(self.node_counts, self.speedups)
        )
        return (
            f"{self.n_tasks} tasks over {self.n_roots} roots "
            f"(inner={self.inner_backend}, {self.distribution}); "
            f"speedup [{curve}]"
        )


def make_task_counter(
    ctx: MatchContext, inner: str = "vectorised"
) -> tuple[Callable[[Sequence[int]], int], str]:
    """Build the per-task ``roots -> raw count`` executor via the registry.

    The distributed analogue of :func:`~repro.core.backend.
    make_prefix_counter`: ``inner`` (one of :data:`INNER_BACKENDS`)
    names the executor that should do the real counting inside each
    root-range task, with a fallback chain applied where the preferred
    strategy cannot serve the context:

    * ``"vectorised"`` — one bulk frontier sweep per range
      (:meth:`~repro.core.vectorised.FrontierEngine.count_roots`, the
      same engine in every mode: plain and directed plans with or
      without an IEP suffix; labeled or induced IEP-free plans;
      connected-prefix schedules); otherwise falls through to
    * ``"compiled"`` — the generated depth-1 prefix kernel, summed per
      root (plain :class:`~repro.core.config.ExecutionPlan` with at
      least two loops); otherwise
    * the interpreter engine family's ``count_prefix`` (every mode).

    Returns ``(counter, effective)`` where ``effective`` names the
    strategy actually built, post-fallback.  Counters return **raw**
    (pre-IEP-division) counts so partial sums add; apply
    ``make_engine(ctx).finalize_count`` to the total.
    """
    _check_inner(inner)
    from repro.core.vectorised import VectorisedBackend, frontier_engine_for

    # Eligibility is the vectorised backend's own supports() predicate,
    # the same one the frontier engine's constructor enforces.
    if inner == "vectorised" and VectorisedBackend().supports(ctx):
        return frontier_engine_for(ctx).count_roots, "vectorised"
    worker = "compiled" if inner in ("vectorised", "compiled") else "interpreter"
    prefix_counter, effective = make_prefix_counter(ctx, 1, worker)
    return (
        lambda roots: sum(prefix_counter((int(r),)) for r in roots)
    ), effective


def distributed_count_ctx(
    ctx: MatchContext,
    *,
    n_tasks: int | None = None,
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    threads_per_node: int = 24,
    steal_latency: float = 5e-4,
    dispatch_overhead: float = 1e-6,
    policy: StealPolicy | None = None,
    distribution: str = "block",
    inner: str = "vectorised",
    seed: int = 2020,
    record_tasks: bool = False,
    simulate: bool = True,
) -> DistributedReport:
    """Count a context exactly and simulate its multi-node schedule.

    The master enumerates viable root vertices (restrictions at depth 0
    already applied), partitions them into ``n_tasks`` ranges with
    :func:`~repro.runtime.worksteal.initial_distribution`, executes each
    range through the ``inner`` executor while measuring wall-clock cost,
    then replays those costs through the cluster simulator at every node
    count in ``node_counts``.  ``simulate=False`` skips the replay
    (``results`` comes back empty) — the counting-only path.
    """
    if not node_counts:
        raise ValueError("node_counts must name at least one node count")
    if n_tasks is not None and n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    engine = make_engine(ctx)
    roots = [prefix[0] for prefix in engine.iter_prefixes(1)]
    n_roots = len(roots)
    if n_tasks is None:
        n_tasks = min(n_roots, DEFAULT_MAX_TASKS) or 1
    n_tasks = min(n_tasks, max(n_roots, 1))

    counter, effective = make_task_counter(ctx, inner)

    # Reuse the cluster's distribution policy for root -> task ranges:
    # each "queue" is one task's root list ("block" = contiguous ranges).
    task_lists = [
        [roots[i] for i in queue]
        for queue in initial_distribution(n_roots, n_tasks, mode=distribution)
    ]
    task_lists = [t for t in task_lists if t]

    raw = 0
    task_seconds: list[float] = []
    t_start = time.perf_counter()
    for i, task_roots in enumerate(task_lists):
        t0 = time.perf_counter()
        with span("task", task=i, roots=len(task_roots)) as sp:
            c = counter(task_roots)
            sp.set(raw=c)
        raw += c
        task_seconds.append(time.perf_counter() - t0)
        obs_metrics.DISTRIBUTED_TASKS.inc()
    seconds_execute = time.perf_counter() - t_start
    count = engine.finalize_count(raw)

    results: list[SimulationResult] = []
    if task_seconds and simulate:
        results = scaling_curve(
            np.asarray(task_seconds, dtype=np.float64),
            node_counts,
            threads_per_node=threads_per_node,
            steal_latency=steal_latency,
            dispatch_overhead=dispatch_overhead,
            seed=seed,
            policy=policy,
            distribution=distribution,
        )

    return DistributedReport(
        count=count,
        n_roots=n_roots,
        n_tasks=len(task_lists),
        inner_backend=effective,
        distribution=distribution,
        split_depth=1,
        threads_per_node=threads_per_node,
        node_counts=tuple(int(n) for n in node_counts),
        results=tuple(results),
        task_seconds=tuple(task_seconds),
        seconds_execute=seconds_execute,
        task_roots=tuple(tuple(t) for t in task_lists) if record_tasks else None,
    )


@register_backend
class DistributedBackend(ExecutionBackend):
    """Simulated multi-node execution: exact counts plus a Fig. 12 profile.

    Constructor options mirror :func:`distributed_count_ctx`:
    ``node_counts`` (the simulated x-axis), ``n_tasks``,
    ``threads_per_node``, ``steal_latency``, ``policy``
    (:class:`~repro.runtime.worksteal.StealPolicy`), ``distribution``
    (``"block"``/``"cyclic"``), ``inner`` (the per-task executor, one
    of :data:`INNER_BACKENDS`, default ``"vectorised"``), ``seed``,
    ``record_tasks`` and ``simulate`` (``False`` skips the cost replay
    on every entry point — for callers that only want exact counts
    through the distributed partitioning).

    Every inner executor runs IEP-suffix plans: each root-range task
    returns a raw partial sum and the master applies the single final
    overcount division — the paper's distributed aggregation.
    """

    name = "distributed"
    supports_enumeration = False
    capabilities = BackendCapabilities(
        modes=frozenset(MODES), iep_modes=IEP_MODES, traced=True
    )

    def __init__(
        self,
        *,
        node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
        n_tasks: int | None = None,
        threads_per_node: int = 24,
        steal_latency: float = 5e-4,
        dispatch_overhead: float = 1e-6,
        policy: StealPolicy | None = None,
        distribution: str = "block",
        inner: str = "vectorised",
        seed: int = 2020,
        record_tasks: bool = False,
        simulate: bool = True,
    ):
        # Validate up front so misconfiguration fails at construction
        # (the CLI's error path), not mid-count: a typo ("vectorized")
        # or an executor with no per-task entry point ("parallel")
        # would otherwise silently demote every task to the interpreter
        # and skew the measured cost profile.
        _check_inner(inner)
        if n_tasks is not None and n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if not node_counts or any(int(n) < 1 for n in node_counts):
            raise ValueError(
                "node_counts must name at least one positive node count"
            )
        self.node_counts = tuple(int(n) for n in node_counts)
        self.n_tasks = n_tasks
        self.threads_per_node = threads_per_node
        self.steal_latency = steal_latency
        self.dispatch_overhead = dispatch_overhead
        self.policy = policy
        self.distribution = distribution
        self.inner = inner
        self.seed = seed
        self.record_tasks = record_tasks
        self.simulate = simulate

    def supports(self, ctx: MatchContext) -> bool:
        # Root tasks split the outermost loop, so the plan needs a
        # second loop to hand the workers (same rule as `parallel`).
        return ctx.mode in MODES and getattr(ctx.plan, "n_loops", 0) >= 2

    def run(
        self, ctx: MatchContext, *, simulate: bool | None = None
    ) -> DistributedReport:
        """Execute and simulate; the full-report entry point."""
        self._require(ctx)
        if simulate is None:
            simulate = self.simulate
        return distributed_count_ctx(
            ctx,
            n_tasks=self.n_tasks,
            node_counts=self.node_counts,
            threads_per_node=self.threads_per_node,
            steal_latency=self.steal_latency,
            dispatch_overhead=self.dispatch_overhead,
            policy=self.policy,
            distribution=self.distribution,
            inner=self.inner,
            seed=self.seed,
            record_tasks=self.record_tasks,
            simulate=simulate,
        )

    def count_with_report(self, ctx: MatchContext) -> tuple[int, DistributedReport]:
        """The session-layer protocol: ``(count, side-channel report)``.

        :meth:`~repro.core.session.MatchSession.count` looks this method
        up by name and, when present, surfaces the second element as
        ``MatchResult.distributed_report``.
        """
        report = self.run(ctx)
        return report.count, report

    def count(self, ctx: MatchContext) -> int:
        # Counting-only callers discard the report, so the cost replay
        # would be pure waste: skip the simulation, keep the real count.
        return self.run(ctx, simulate=False).count

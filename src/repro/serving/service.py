"""MatchService: the long-lived serving runtime over MatchSession.

The production story the ROADMAP asks for: one service process owns the
graph replicas, the shared plan caches and a result memo, and admits
concurrent queries through a bounded priority queue::

                 submit()                      worker pool
    clients ──▶ [memo? single-flight?] ──▶ ╔═══════════════╗
                 │ admission control        ║ freeze→count  ║──▶ DONE
                 ▼ (ServiceOverloaded)      ╚═══════════════╝
               priority heap  ── timeout/cancel ──▶ FAILED/CANCELLED

Design decisions, in the order they bite:

* **Watched counts are published, not executed.**  A dynamic replica's
  stream watches hold exact counts that churn maintains incrementally.
  ``watch()`` and ``apply_churn()`` publish each one into the result
  memo under the key a count request for the watched query computes at
  the version the count is exact for, while the replica lock still
  keeps readers from freezing that version.  A served count of a
  watched query is then an ordinary memo hit: no session, no planning,
  no execution.  Only memoised services publish; enumerates, induced
  queries, other plan knobs (a different fingerprint) and static
  replicas execute as before.
* **Admission before queueing.**  ``submit()`` resolves the replica,
  freezes ``(graph, version)`` and probes the memo *before* taking a
  queue slot — a memo hit or a single-flight collapse costs no
  capacity.  Only genuinely new work competes for the ``queue_limit``
  slots; at the high-water mark the submit raises
  :class:`~repro.serving.jobs.ServiceOverloaded` instead of buffering
  without bound.
* **Priorities with FIFO fairness.**  The heap orders by
  ``(-priority, sequence)``: higher priority first, submission order
  within a priority — so a stream of urgent jobs cannot reorder among
  themselves and starvation within a class is impossible.
* **Workers are threads.**  Matching is numpy-heavy (kernels release
  the GIL in bulk operations) and the frozen graphs are immutable, so
  threads share every cache for free; the thread-safe session layer
  (PR 7) is what makes that sound.  The asyncio front door is the
  handle itself: ``await handle`` parks the blocking wait on a thread.
* **The waiting caller runs its own job.**  ``handle.result()`` with
  no timeout, on a job with no deadline that is next in the queue
  while a worker is idle, runs the job on the calling thread instead
  of waiting for that worker to wake.  A closed-loop client then
  skips two cross-thread hand-offs (wake the worker, wake the
  caller), whose latency on a loaded host is both large and erratic.
  Queue order and the ``n_workers`` bound on running jobs hold: the
  job is the one an idle worker would take next, and it holds that
  worker's slot until it finishes.
* **Cooperative cancellation.**  A cancelled or timed-out RUNNING job
  is finalised immediately (callers unblock, followers resolve) and the
  worker's computation is disowned — its result is discarded on
  arrival.  ``job.cancel_event`` is set for executors that can stop
  early.  The one caller that cannot unblock early is the one running
  the job itself (above): it returns when the executor does.
* **Callbacks under the service lock.**  ``on_status``/``on_result``
  fire in transition order, exactly once per transition (the
  openreview-matcher coordinator contract).  They must be quick and
  non-blocking; the lock is reentrant, so a callback may call back into
  the service (e.g. cancel a sibling job).
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.session import CacheInfo, get_session
from repro.obs import metrics as obs_metrics
from repro.obs.trace import collect, record_span
from repro.serving.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobHandle,
    JobTimeout,
    MatchRequest,
    ServiceOverloaded,
)
from repro.serving.memo import MemoStats, ResultMemo
from repro.serving.replicas import Replica, ReplicaRegistry
from repro.streaming.session import StreamReport


def default_executor(graph: Any, request: MatchRequest,
                     cancel_event: threading.Event) -> Any:
    """Run a request on a frozen graph through the ordinary session layer.

    ``cancel_event`` is accepted for interface parity (test fakes gate
    on it); the real engines run to completion — disowning, not
    interruption, is what bounds a caller's wait.
    """
    session = get_session(graph)
    if request.kind == "count":
        return int(session.count(request.query))
    return tuple(session.enumerate(request.query, limit=request.limit))


@dataclass(frozen=True)
class ServiceStats:
    """One consistent snapshot of the service's counters.

    ``plan_caches`` surfaces every replica session's
    :class:`~repro.core.session.CacheInfo` — the per-session hit/miss
    counters the serving stats endpoint is the window onto.
    """

    n_workers: int
    queue_depth: int
    running: int
    submitted: int
    completed: int
    failed: int
    cancelled: int
    timed_out: int
    rejected: int
    churn_batches: int
    memo: MemoStats
    plan_caches: dict[str, CacheInfo]

    @property
    def memo_hit_ratio(self) -> float:
        probes = self.memo.hits + self.memo.misses
        return self.memo.hits / probes if probes else 0.0

    def describe(self) -> str:
        return (
            f"workers={self.n_workers} queue={self.queue_depth} "
            f"running={self.running} | submitted={self.submitted} "
            f"done={self.completed} failed={self.failed} "
            f"cancelled={self.cancelled} timed_out={self.timed_out} "
            f"rejected={self.rejected} | memo hits={self.memo.hits} "
            f"misses={self.memo.misses} collapsed={self.memo.collapsed} "
            f"(ratio {self.memo_hit_ratio:.2f})"
        )


class MatchService:
    """A worker pool serving match jobs against registered replicas.

    Parameters
    ----------
    registry:
        A :class:`~repro.serving.replicas.ReplicaRegistry` (a fresh one
        is created when omitted; ``add_graph`` registers into it).
    n_workers:
        Worker thread count.
    queue_limit:
        High-water mark: the maximum number of *queued* jobs (running
        jobs hold no slot).  At the mark, ``submit`` raises
        :class:`ServiceOverloaded`.
    memo_capacity:
        Result-memo LRU size; ``memoise=False`` disables result reuse
        service-wide (per-submit override available).
    executor:
        ``(frozen graph, request, cancel_event) -> value`` — the work
        function.  Defaults to :func:`default_executor`; tests inject
        event-gated fakes so queue semantics are exercised without
        sleeping.

    >>> service = MatchService(n_workers=4)
    >>> service.add_graph("wiki", load_dataset("wiki-vote", scale=0.1))
    >>> handle = service.count(get_pattern("triangle"), graph="wiki")
    >>> handle.result()
    """

    def __init__(
        self,
        registry: ReplicaRegistry | None = None,
        *,
        n_workers: int = 2,
        queue_limit: int = 64,
        memo_capacity: int = 1024,
        memoise: bool = True,
        executor: Callable[[Any, MatchRequest, threading.Event], Any] | None = None,
        name: str = "match-service",
    ):
        if n_workers < 1:
            raise ValueError("the service needs at least one worker")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.registry = registry if registry is not None else ReplicaRegistry()
        self.name = name
        self.memoise = memoise
        self._executor = executor if executor is not None else default_executor
        self._memo = ResultMemo(memo_capacity)
        self._lock = threading.RLock()
        self._not_empty = threading.Condition(self._lock)
        self._heap: list[tuple[int, int, Job]] = []
        self._queue_limit = queue_limit
        self._queued = 0  # live queued jobs (dead heap entries excluded)
        self._running = 0
        self._seq = 0
        self._next_id = 1
        self._closed = False
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._cancelled = 0
        self._timed_out = 0
        self._rejected = 0
        self._churn_batches = 0
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"{name}-worker-{i}", daemon=True
            )
            for i in range(n_workers)
        ]
        for t in self._workers:
            t.start()

    # ------------------------------------------------------------------
    # replica administration
    # ------------------------------------------------------------------
    def add_graph(self, name: str, graph: Any) -> Replica:
        """Register a graph (static or dynamic) as a named replica."""
        return self.registry.add(name, graph)

    def watch(self, query: Any, *, graph: str = "default",
              name: str | None = None):
        """Stream-maintain a query's count on a dynamic replica.

        A memoised service publishes the count into the result memo at
        every version from now on, so count requests for the query are
        answered without executing.
        """
        return self.registry.get(graph).watch(
            query, name=name, publish=self._publisher(graph)
        )

    def unwatch(self, handle: Any, *, graph: str = "default") -> None:
        """Stop maintaining a watch; from the next churn on, counts of
        its query execute again."""
        self.registry.get(graph).unwatch(handle)

    def _publisher(self, graph: str):
        """The replica callback that publishes watch counts into the
        memo (``None`` when the service does not memoise)."""
        if not self.memoise:
            return None

        def publish(version: int, watches) -> None:
            for watch in watches:
                request = MatchRequest("count", watch.query, graph=graph)
                key = ResultMemo.key_for(request, graph, version)
                self._memo.publish(key, watch.count)

        return publish

    def apply_churn(self, updates: Iterable[Any], *,
                    graph: str = "default") -> StreamReport:
        """The admin write path: mutate a dynamic replica.

        Routes through the replica's :class:`StreamSession` (streamed
        watch counts stay warm across the mutation and are published at
        the new version), then eagerly drops the now-stale memo entries
        — version keys already guarantee no stale *read*; the
        invalidation just frees the space.
        """
        replica = self.registry.get(graph)
        report = replica.apply_churn(updates, publish=self._publisher(graph))
        self._memo.invalidate(graph, below_version=replica.version)
        with self._lock:
            self._churn_batches += 1
        return report

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def count(self, query: Any, *, graph: str = "default", **submit_kw) -> JobHandle:
        """Submit a count job (convenience over :meth:`submit`)."""
        return self.submit(MatchRequest("count", query, graph=graph), **submit_kw)

    def enumerate(self, query: Any, *, graph: str = "default",
                  limit: int | None = None, **submit_kw) -> JobHandle:
        """Submit an enumerate job (result: tuple of embedding tuples)."""
        return self.submit(
            MatchRequest("enumerate", query, graph=graph, limit=limit), **submit_kw
        )

    def submit(
        self,
        request: MatchRequest,
        *,
        priority: int = 0,
        timeout: float | None = None,
        on_status: Callable[[JobHandle], None] | None = None,
        on_result: Callable[[Any], None] | None = None,
        memoise: bool | None = None,
    ) -> JobHandle:
        """Admit a request; returns the handle tracking its job.

        ``priority``: larger runs earlier (FIFO within equal priority).
        ``timeout``: seconds from submission to a deadline that fails
        the job wherever it is (queued or mid-run).  ``memoise=None``
        inherits the service default.

        Raises :class:`ServiceOverloaded` when the job would need a
        queue slot and none is free — memo hits and single-flight
        followers are admitted regardless, they cost nothing to serve.
        """
        if not isinstance(request, MatchRequest):
            raise TypeError(
                f"submit takes a MatchRequest, got {type(request).__name__} "
                "(use service.count()/service.enumerate() for bare patterns)"
            )
        use_memo = self.memoise if memoise is None else memoise
        replica = self.registry.get(request.graph)
        graph, version = replica.freeze()
        key = ResultMemo.key_for(request, request.graph, version)
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{self.name} is closed")
            cached, value, primary = self._memo.lookup(key) if use_memo else (False, None, None)
            job = Job(
                self._next_id,
                request,
                priority=priority,
                seq=self._seq,
                timeout=timeout,
                graph=graph,
                version=version,
                on_status=on_status,
                on_result=on_result,
                runnable=not cached,
            )
            self._next_id += 1
            self._seq += 1
            job.t_submit = time.perf_counter()
            handle = JobHandle(job, self)
            if use_memo:
                if cached:
                    # served entirely from the memo: no slot, no worker.
                    self._submitted += 1
                    job.t_start = job.t_submit
                    self._finalize(job, DONE, value=value)
                    return handle
                if primary is not None:
                    # single-flight: ride the in-flight primary.
                    self._submitted += 1
                    self._fire_status(job, handle)
                    primary.followers.append(handle)
                    self._arm_timer(job)
                    return handle
            if self._queued >= self._queue_limit:
                self._rejected += 1
                raise ServiceOverloaded(
                    f"{self.name} queue at high-water mark "
                    f"({self._queued}/{self._queue_limit} queued); "
                    f"rejecting {request.describe()}"
                )
            self._submitted += 1
            job.enqueued = True
            self._queued += 1
            obs_metrics.SERVICE_QUEUE_DEPTH.inc()
            heapq.heappush(self._heap, (-priority, job.seq, job))
            if use_memo:
                # only a primary records its result: a hit has nothing
                # to add, and a follower resolves with its primary
                job.memo_key = key
                self._memo.register_inflight(key, job)
            self._fire_status(job, handle)
            self._arm_timer(job)
            self._not_empty.notify()
            return handle

    # ------------------------------------------------------------------
    # lifecycle internals (all called under self._lock unless noted)
    # ------------------------------------------------------------------
    def _fire_status(self, job: Job, handle: JobHandle | None = None) -> None:
        if job.on_status is not None:
            job.on_status(handle if handle is not None else JobHandle(job, self))

    def _arm_timer(self, job: Job) -> None:
        if job.timeout is not None:
            job.timer = threading.Timer(job.timeout, self._expire, args=(job,))
            job.timer.daemon = True
            job.timer.start()

    def _expire(self, job: Job) -> None:
        """Deadline fired (timer thread): fail the job wherever it is."""
        with self._lock:
            if job.finished:
                return
            if job.enqueued and job.state == QUEUED:
                self._queued -= 1
                job.enqueued = False
                obs_metrics.SERVICE_QUEUE_DEPTH.dec()
            self._timed_out += 1
            job.cancel_event.set()
            self._finalize(
                job,
                FAILED,
                error=JobTimeout(
                    f"job {job.id} ({job.request.describe()}) exceeded its "
                    f"{job.timeout}s deadline while {job.state}"
                ),
            )

    def _cancel(self, job: Job) -> bool:
        """Handle.cancel() lands here; True iff the job ends CANCELLED."""
        with self._lock:
            if job.finished:
                return job.state == CANCELLED
            if job.enqueued and job.state == QUEUED:
                self._queued -= 1
                job.enqueued = False
                obs_metrics.SERVICE_QUEUE_DEPTH.dec()
            job.cancel_event.set()
            self._finalize(job, CANCELLED)
            return True

    def _finalize(self, job: Job, state: str, *, value: Any = None,
                  error: BaseException | None = None) -> None:
        """The single terminal transition: resolve job, memo, followers."""
        if job.finished:  # disowned worker result arriving late
            return
        was_running = job.state == RUNNING
        job.state = state
        job.value = value
        job.error = error
        job.t_done = time.perf_counter()
        if job.timer is not None:
            job.timer.cancel()
            job.timer = None
        if was_running:
            self._running -= 1
            self._not_empty.notify()  # a slot is free for a waiting worker
        if state == DONE:
            self._completed += 1
        elif state == CANCELLED:
            self._cancelled += 1
        else:
            self._failed += 1
        obs_metrics.SERVICE_JOBS.labels(state=state).inc()
        obs_metrics.SERVICE_JOB_SECONDS.observe(job.t_done - job.t_submit)
        if job.t_start:
            obs_metrics.SERVICE_QUEUE_WAIT_SECONDS.observe(
                job.t_start - job.t_submit
            )
        if job.memo_key is not None:
            self._memo.resolve(job.memo_key, job, value, store=state == DONE)
        job._finished.set()
        self._fire_status(job)
        if state == DONE and job.on_result is not None:
            job.on_result(value)
        # resolve single-flight followers with the same outcome; a
        # follower that already died on its own (cancel/timeout) is
        # skipped — its fate was sealed first.
        followers, job.followers = job.followers, []
        for fh in followers:
            fjob = fh._job
            if not fjob.finished:
                fjob.t_start = fjob.t_start or job.t_start or fjob.t_submit
                fjob.trace = fjob.trace or job.trace
                self._finalize(fjob, state, value=value, error=error)

    def _next_job(self) -> Job | None:
        """Pop the next live job (worker thread, under the lock).

        Waits while the queue is empty or ``n_workers`` jobs already run
        (callers running their own jobs take slots too).
        """
        while True:
            while (not self._heap and not self._closed) or (
                self._heap and self._running >= len(self._workers)
            ):
                self._not_empty.wait()
            if not self._heap:
                return None  # closed and drained
            _, _, job = heapq.heappop(self._heap)
            if job.finished:
                continue  # cancelled/expired while queued; slot already freed
            self._start(job)
            return job

    def _start(self, job: Job) -> None:
        """QUEUED -> RUNNING for a job just popped off the heap (under
        the lock)."""
        job.enqueued = False
        self._queued -= 1
        obs_metrics.SERVICE_QUEUE_DEPTH.dec()
        job.state = RUNNING
        job.t_start = time.perf_counter()
        self._running += 1
        self._fire_status(job)

    def _run_in_caller(self, job: Job) -> None:
        """Run ``job`` on the calling thread if an idle worker would
        take it next anyway (see the module docstring).

        Called by :meth:`JobHandle.result` with no timeout; otherwise
        returns at once and the job stays with the workers.  A job with
        a deadline is left to them too, since its caller must unblock
        when the deadline fires.
        """
        with self._lock:
            if (
                not job.enqueued
                or job.timeout is not None
                or self._running >= len(self._workers)
                or self._heap[0][2] is not job
            ):
                return
            heapq.heappop(self._heap)
            self._start(job)
        try:
            self._run(job)
        except BaseException as exc:  # e.g. KeyboardInterrupt on this thread
            with self._lock:
                if not job.finished:
                    self._finalize(job, FAILED, error=exc)
            raise

    def _worker_loop(self) -> None:
        while True:
            with self._not_empty:
                job = self._next_job()
            if job is None:
                return
            self._run(job)

    def _run(self, job: Job) -> None:
        """Execute a RUNNING job and finalise it (on a worker, or on the
        caller through :meth:`_run_in_caller`)."""
        trace = None
        try:
            with collect(
                "serve.job",
                job=job.id,
                kind=job.request.kind,
                graph=job.request.graph,
            ) as trace:
                # the time this job sat QUEUED, as a sibling interval
                # of the execution work — the wait/run split in one
                # trace (Perfetto shows it as a leading child slice).
                record_span("serve.queue_wait", job.t_submit, job.t_start)
                value = self._executor(
                    job.graph, job.request, job.cancel_event
                )
        except Exception as exc:  # noqa: BLE001 — job-scoped failure wall
            with self._lock:
                job.trace = trace
                if not job.finished:
                    self._finalize(job, FAILED, error=exc)
        else:
            if trace is not None:
                obs_metrics.TRACES_COLLECTED.inc()
            with self._lock:
                job.trace = trace
                if not job.finished:
                    self._finalize(job, DONE, value=value)
                # else: cancelled/timed out mid-run — result disowned.

    # ------------------------------------------------------------------
    # introspection / shutdown
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """The service's counters plus every replica's plan-cache info."""
        plan_caches: dict[str, CacheInfo] = {}
        # One atomic capture of the replica set: iterating names() and
        # re-resolving each with get() races concurrent remove()/add —
        # a replica dropped mid-iteration turned a stats poll into a
        # KeyError.  freeze() then takes each replica's own lock, so a
        # racing apply_churn still yields a consistent (graph, version).
        for name, replica in self.registry.snapshot():
            graph, _ = replica.freeze()
            plan_caches[name] = get_session(graph).cache_info()
        with self._lock:
            return ServiceStats(
                n_workers=len(self._workers),
                queue_depth=self._queued,
                running=self._running,
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                cancelled=self._cancelled,
                timed_out=self._timed_out,
                rejected=self._rejected,
                churn_batches=self._churn_batches,
                memo=self._memo.stats(),
                plan_caches=plan_caches,
            )

    def export_metrics(self) -> str:
        """Prometheus text exposition of the process-global registry.

        The serving half of the observability surface: everything the
        service and the layers under it emitted (job states, queue
        depth, latency histograms, memo and plan-cache counters) in the
        format a scraper — or ``repro metrics`` — expects.  The registry
        is process-global, so services sharing a process share one
        exposition.
        """
        return obs_metrics.REGISTRY.render_prometheus()

    @property
    def queue_limit(self) -> int:
        return self._queue_limit

    def drain(self, timeout: float | None = None) -> bool:
        """Block until the queue is empty and no job is running."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            with self._lock:
                if self._queued == 0 and self._running == 0:
                    return True
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            time.sleep(0.001)

    def close(self, *, wait: bool = True) -> None:
        """Stop admitting work; workers drain the queue, then exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._not_empty.notify_all()
        if wait:
            for t in self._workers:
                t.join()

    def __enter__(self) -> "MatchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"MatchService({self.name!r}, workers={len(self._workers)}, "
                f"queued={self._queued}, running={self._running}, "
                f"replicas={list(self.registry.names())})"
            )

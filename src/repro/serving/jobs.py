"""Jobs: the unit of work the serving runtime admits, tracks and resolves.

A caller describes *what* to run with a frozen :class:`MatchRequest`
(kind + query + target replica — deliberately excluding scheduling
concerns like priority or timeout, which belong to ``submit()``), the
service wraps it in an internal :class:`Job` carrying all mutable
lifecycle state, and hands back a :class:`JobHandle` — the only object
callers touch afterwards.

Lifecycle (the state machine the queue tests pin)::

    QUEUED ──────▶ RUNNING ──────▶ DONE
       │              │  └───────▶ FAILED   (error or timeout)
       └──────────────┴──────────▶ CANCELLED

Transitions are monotone: a job reaches exactly one of the three
terminal states, and every transition fires the job's ``on_status``
callback (``on_result`` additionally fires with the value on ``DONE``)
— the callback-driven coordinator style of the openreview-matcher
``Matcher``, generalised to a pool of concurrent jobs.

Cancellation and timeouts are *cooperative*: Python threads cannot be
killed, so cancelling a RUNNING job (or a deadline firing mid-run)
finalises the job immediately — the handle resolves, followers are
notified — while the worker's in-flight computation is disowned; its
eventual return value is discarded.  The job's :attr:`Job.cancel_event`
is set so cooperative executors (the streaming-aware default checks it
between root chunks is future work; the test fakes wait on it) can stop
early instead of computing a result nobody will read.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.query import MatchQuery, as_query

#: job lifecycle states (strings, matching the repo's mode/semantics style).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: request kinds a job can carry.
KINDS = ("count", "enumerate")


class ServiceOverloaded(RuntimeError):
    """The queue is at its high-water mark: the job was rejected.

    Backpressure is explicit — the caller decides whether to retry,
    shed, or slow down; the service never buffers unboundedly.
    """


class JobCancelled(RuntimeError):
    """Raised by ``result()`` when the job was cancelled."""


class JobTimeout(RuntimeError):
    """Raised by ``result()`` when the job's deadline fired first."""


@dataclass(frozen=True)
class MatchRequest:
    """What to run: a query against a named replica.

    Parameters
    ----------
    kind:
        ``"count"`` (result: the embedding count as ``int``) or
        ``"enumerate"`` (result: a tuple of embedding tuples).
    query:
        A :class:`~repro.core.query.MatchQuery` or a bare pattern
        (coerced exactly like the session entry points).
    graph:
        Replica name in the service's registry (default ``"default"``).
    limit:
        Embedding cap for ``enumerate`` requests (``None`` = all);
        must be ``None`` for counts.

    Frozen and scheduling-free on purpose: two requests that are equal
    describe the same work, which is what makes the result memo and
    single-flight collapsing sound.
    """

    kind: str
    query: Any
    graph: str = "default"
    limit: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown request kind {self.kind!r}: expected one of {KINDS}"
            )
        if not isinstance(self.query, MatchQuery):
            object.__setattr__(self, "query", as_query(self.query))
        if self.kind == "count" and self.limit is not None:
            raise ValueError("limit only applies to enumerate requests")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be non-negative")

    def memo_fingerprint(self) -> tuple:
        """The request half of the memo key (see :mod:`repro.serving.memo`).

        ``query.fingerprint`` already canonicalises every plan-affecting
        field; ``kind`` and ``limit`` distinguish work the same plan
        performs differently.
        """
        return (self.kind, self.query.fingerprint, self.limit)

    def describe(self) -> str:
        lim = f" limit={self.limit}" if self.limit is not None else ""
        return f"{self.kind} {self.query.describe()} @{self.graph}{lim}"


#: the finished event of every job that ends inside ``submit`` (a memo
#: hit): set once, shared, so such a job builds no event of its own.
_FINISHED_AT_SUBMIT = threading.Event()
_FINISHED_AT_SUBMIT.set()


class Job:
    """Internal lifecycle record: one admitted request and its fate.

    Owned by the service; all state transitions go through
    :meth:`transition` / :meth:`finalize` under the service's lock.
    Callers only ever see the :class:`JobHandle`.  ``runnable=False``
    marks a job the service finishes before ``submit`` returns: it gets
    the shared, already-set finished event and no ``cancel_event``
    (``None``), since nothing can run, cancel or time it out.
    """

    __slots__ = (
        "id",
        "request",
        "priority",
        "seq",
        "timeout",
        "state",
        "value",
        "error",
        "graph",
        "version",
        "memo_key",
        "cancel_event",
        "timer",
        "enqueued",
        "_finished",
        "on_status",
        "on_result",
        "followers",
        "t_submit",
        "t_start",
        "t_done",
        "trace",
    )

    def __init__(
        self,
        job_id: int,
        request: MatchRequest,
        *,
        priority: int = 0,
        seq: int = 0,
        timeout: float | None = None,
        graph: Any = None,
        version: int = 0,
        memo_key: tuple | None = None,
        on_status: Callable[["JobHandle"], None] | None = None,
        on_result: Callable[[Any], None] | None = None,
        runnable: bool = True,
    ):
        self.id = job_id
        self.request = request
        self.priority = priority
        self.seq = seq
        self.timeout = timeout
        self.state = QUEUED
        self.value: Any = None
        self.error: BaseException | None = None
        #: the frozen data graph captured at submit time — executing on
        #: it (not on whatever the replica holds later) is what makes
        #: the memo key's version honest under concurrent churn.
        self.graph = graph
        self.version = version
        #: the key a memoised primary resolves in the result memo when
        #: it finishes (None for memo hits, followers and unmemoised jobs)
        self.memo_key = memo_key
        self.cancel_event = threading.Event() if runnable else None
        #: deadline timer (service-managed), cancelled on finalisation.
        self.timer: threading.Timer | None = None
        #: True while the job occupies a queue slot (followers and
        #: memo hits never do — they must not release one on death).
        self.enqueued = False
        self._finished = threading.Event() if runnable else _FINISHED_AT_SUBMIT
        self.on_status = on_status
        self.on_result = on_result
        #: handles of collapsed duplicate submissions (single-flight);
        #: resolved with this job's outcome on finalisation.
        self.followers: list[JobHandle] = []
        self.t_submit: float = 0.0
        self.t_start: float = 0.0
        self.t_done: float = 0.0
        #: the execution-side span tree (a :class:`repro.obs.trace.Trace`)
        #: when tracing was enabled while the job ran; None otherwise.
        self.trace: Any = None

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES


class JobHandle:
    """The caller's view of a submitted job: state, result, cancellation.

    * ``result(timeout=None)`` blocks until the job finishes and returns
      the value (or raises the job's error / :class:`JobCancelled` /
      :class:`JobTimeout`).  With no timeout it may run the job itself
      when an idle worker would take it next (see
      :mod:`repro.serving.service`).
    * The handle is *awaitable* — ``await handle`` inside a coroutine is
      the asyncio front door (the blocking wait is pushed to a thread,
      so the event loop stays responsive); ``aresult()`` is the explicit
      spelling.
    * ``cancel()`` requests cancellation; queued jobs die immediately,
      running jobs are finalised and their computation disowned.
    """

    __slots__ = ("_job", "_service")

    def __init__(self, job: Job, service: Any):
        self._job = job
        self._service = service

    # -- introspection --------------------------------------------------
    @property
    def id(self) -> int:
        return self._job.id

    @property
    def request(self) -> MatchRequest:
        return self._job.request

    @property
    def state(self) -> str:
        return self._job.state

    @property
    def priority(self) -> int:
        return self._job.priority

    @property
    def graph(self) -> Any:
        """The frozen data graph the job executes on (submit-time capture)."""
        return self._job.graph

    @property
    def version(self) -> int:
        """The replica's mutation version the job was keyed against."""
        return self._job.version

    def done(self) -> bool:
        return self._job.finished

    @property
    def latency(self) -> float:
        """Submit-to-terminal wall seconds (0.0 while unfinished)."""
        if not self._job.finished:
            return 0.0
        return self._job.t_done - self._job.t_submit

    @property
    def trace(self) -> Any:
        """The job's span tree (populated only when tracing was enabled
        while this job ran; followers share the primary's)."""
        return self._job.trace

    @property
    def queue_seconds(self) -> float:
        """Time spent QUEUED before running (or before a queued death)."""
        if self._job.t_start:
            return self._job.t_start - self._job.t_submit
        if self._job.finished:
            return self._job.t_done - self._job.t_submit
        return 0.0

    # -- resolution -----------------------------------------------------
    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state (True) or timeout."""
        return self._job._finished.wait(timeout)

    def result(self, timeout: float | None = None) -> Any:
        """The job's value; blocks, raises the job's failure if it lost."""
        if timeout is None:
            self._service._run_in_caller(self._job)
        if not self._job._finished.wait(timeout):
            raise TimeoutError(
                f"job {self._job.id} still {self._job.state} after {timeout}s"
            )
        job = self._job
        if job.state == DONE:
            return job.value
        if job.state == CANCELLED:
            raise JobCancelled(f"job {job.id} ({job.request.describe()}) cancelled")
        assert job.error is not None
        raise job.error

    async def aresult(self, timeout: float | None = None) -> Any:
        """Asyncio front door: ``await handle.aresult()`` / ``await handle``."""
        import asyncio  # a running event loop has loaded it; blocking users never do

        return await asyncio.to_thread(self.result, timeout)

    def __await__(self):
        return self.aresult().__await__()

    def cancel(self) -> bool:
        """Request cancellation; True iff the job ends CANCELLED."""
        return self._service._cancel(self._job)

    def exception(self) -> BaseException | None:
        """The failure (after completion), or None."""
        return self._job.error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobHandle(#{self._job.id} {self._job.request.describe()} "
            f"[{self._job.state}])"
        )

"""The metrics registry: named counters, gauges and histograms.

One process-global :data:`REGISTRY` holds every instrument; every
instrument the repository emits is *declared in this module* (the
bottom section) so the registry doubles as the authoritative metric
catalog — ``tools/gen_metric_catalog.py`` renders the documentation
table straight from :meth:`MetricsRegistry.describe`, and the CI
freshness gate keeps ``docs/observability.md`` pinned to it.

Instruments are cheap and thread-safe (one small lock each; the hot
emitters — frontier sweeps, session counts — touch them a handful of
times per query, not per embedding).  Reading happens through
:meth:`MetricsRegistry.snapshot` (a flat ``sample name -> value`` dict
in Prometheus sample naming), :meth:`MetricsRegistry.delta` (the
difference against an earlier snapshot — what a benchmark or a test
asserts on), and :meth:`MetricsRegistry.render_prometheus` (the text
exposition format ``repro metrics`` and
``MatchService.export_metrics()`` serve).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable, NamedTuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSpec",
    "MetricsRegistry",
    "REGISTRY",
]

#: histogram bucket upper bounds for wall-clock seconds (exponential,
#: 100 µs .. 100 s — matching jobs that take less than 100 µs are memo
#: hits, ones over 100 s belong in the distributed simulator).
SECONDS_BUCKETS = (
    1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2, 3.16e-2, 0.1, 0.316, 1.0, 3.16, 10.0, 31.6, 100.0,
)


class MetricSpec(NamedTuple):
    """One catalog row: what an instrument is, for the generated docs."""

    name: str
    kind: str
    labels: tuple[str, ...]
    help: str


def _label_key(label_names: tuple[str, ...], values: dict) -> tuple:
    if set(values) != set(label_names):
        raise ValueError(
            f"expected labels {label_names}, got {tuple(sorted(values))}"
        )
    return tuple(str(values[name]) for name in label_names)


def _sample_name(name: str, label_names: tuple[str, ...], key: tuple) -> str:
    if not label_names:
        return name
    inner = ",".join(f'{n}="{v}"' for n, v in zip(label_names, key))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count, optionally labeled."""

    kind = "counter"
    __slots__ = ("name", "help", "label_names", "_lock", "_value", "_children")

    def __init__(self, name: str, help: str, label_names: tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self.label_names = label_names
        self._lock = threading.Lock()
        self._value = 0.0
        self._children: dict[tuple, float] = {}

    def inc(self, n: "int | float" = 1) -> None:
        if self.label_names:
            raise ValueError(f"{self.name} is labeled; use .labels(...).inc()")
        with self._lock:
            self._value += n

    def labels(self, **values) -> "_BoundCounter":
        key = _label_key(self.label_names, values)
        return _BoundCounter(self, key)

    def _inc_child(self, key: tuple, n: "int | float") -> None:
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> Iterable[tuple[str, float]]:
        with self._lock:
            if self.label_names:
                for key in sorted(self._children):
                    yield (
                        _sample_name(self.name, self.label_names, key),
                        self._children[key],
                    )
            else:
                yield self.name, self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0
            self._children.clear()


class _BoundCounter:
    """One label combination of a :class:`Counter` (``labels()`` result)."""

    __slots__ = ("_parent", "_key")

    def __init__(self, parent: Counter, key: tuple):
        self._parent = parent
        self._key = key

    def inc(self, n: "int | float" = 1) -> None:
        self._parent._inc_child(self._key, n)


class Gauge:
    """A value that goes up and down (queue depth, live workers)."""

    kind = "gauge"
    __slots__ = ("name", "help", "label_names", "_lock", "_value")

    def __init__(self, name: str, help: str, label_names: tuple[str, ...] = ()):
        if label_names:
            raise ValueError("labeled gauges are not needed yet")
        self.name = name
        self.help = help
        self.label_names = ()
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: "int | float") -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: "int | float" = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: "int | float" = 1) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> Iterable[tuple[str, float]]:
        yield self.name, self.value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics: ``le`` bounds)."""

    kind = "histogram"
    __slots__ = ("name", "help", "label_names", "bounds", "_lock", "_counts",
                 "_sum", "_count")

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...] = (),
        bounds: tuple[float, ...] = SECONDS_BUCKETS,
    ):
        if label_names:
            raise ValueError("labeled histograms are not needed yet")
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.name = name
        self.help = help
        self.label_names = ()
        self.bounds = tuple(float(b) for b in bounds)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: "int | float") -> None:
        i = 0
        for i, bound in enumerate(self.bounds):  # noqa: B007 - small, linear
            if value <= bound:
                break
        else:
            i = len(self.bounds)
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def samples(self) -> Iterable[tuple[str, float]]:
        with self._lock:
            counts = list(self._counts)
            total, acc = self._count, 0
            s = self._sum
        for bound, n in zip(self.bounds, counts):
            acc += n
            yield f'{self.name}_bucket{{le="{bound:g}"}}', float(acc)
        yield f'{self.name}_bucket{{le="+Inf"}}', float(total)
        yield f"{self.name}_sum", s
        yield f"{self.name}_count", float(total)

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0


class MetricsRegistry:
    """Name → instrument, with snapshot/delta/reset and text exposition."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: "OrderedDict[str, Counter | Gauge | Histogram]" = OrderedDict()

    # -- registration --------------------------------------------------
    def _register(self, metric):
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                raise ValueError(f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str, labels: tuple[str, ...] = ()) -> Counter:
        return self._register(Counter(name, help, tuple(labels)))

    def gauge(self, name: str, help: str) -> Gauge:
        return self._register(Gauge(name, help))

    def histogram(
        self, name: str, help: str, *, bounds: tuple[float, ...] = SECONDS_BUCKETS
    ) -> Histogram:
        return self._register(Histogram(name, help, bounds=bounds))

    def get(self, name: str):
        with self._lock:
            return self._metrics[name]

    def names(self) -> list[str]:
        with self._lock:
            return list(self._metrics)

    # -- reading -------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Flat ``sample name -> value`` across every instrument."""
        with self._lock:
            metrics = list(self._metrics.values())
        out: dict[str, float] = {}
        for metric in metrics:
            out.update(metric.samples())
        return out

    def delta(self, previous: dict[str, float]) -> dict[str, float]:
        """Current snapshot minus ``previous`` (absent keys count as 0).

        Samples whose value did not change are omitted, so a test can
        assert exactly which instruments an operation touched.
        """
        now = self.snapshot()
        out: dict[str, float] = {}
        for key in now.keys() | previous.keys():
            diff = now.get(key, 0.0) - previous.get(key, 0.0)
            if diff:
                out[key] = diff
        return out

    def reset(self) -> None:
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    def describe(self) -> list[MetricSpec]:
        """The catalog: one spec per registered instrument, in order."""
        with self._lock:
            return [
                MetricSpec(m.name, m.kind, tuple(m.label_names), m.help)
                for m in self._metrics.values()
            ]

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: list[str] = []
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample, value in metric.samples():
                lines.append(f"{sample} {value:g}")
        return "\n".join(lines) + "\n"


#: the process-global registry every layer emits into.
REGISTRY = MetricsRegistry()


# ---------------------------------------------------------------------------
# the metric catalog — every instrument the repository emits, in one place
# ---------------------------------------------------------------------------
PLAN_CACHE_HITS = REGISTRY.counter(
    "repro_plan_cache_hits_total",
    "MatchSession plan-cache lookups served by a cached plan.",
)
PLAN_CACHE_MISSES = REGISTRY.counter(
    "repro_plan_cache_misses_total",
    "MatchSession plan-cache lookups that planned (fully, or by re-ranking a shared pattern plan).",
)
PLAN_PATTERN_HITS = REGISTRY.counter(
    "repro_plan_pattern_hits_total",
    "Plan-cache misses that reused a shared pattern plan and only re-ranked it.",
)
KERNELS_COMPILED = REGISTRY.counter(
    "repro_kernels_compiled_total",
    "Specialised kernels generated at execution time (_ensure_kernel path).",
)
BACKEND_COUNTS = REGISTRY.counter(
    "repro_backend_counts_total",
    "Session count executions, by the backend that ran them.",
    labels=("backend",),
)
BACKEND_FALLBACKS = REGISTRY.counter(
    "repro_backend_fallbacks_total",
    "Explicit backend preferences replaced because the backend could not "
    "serve the call, by requested and substitute backend.",
    labels=("requested", "ran"),
)
FRONTIER_ROWS = REGISTRY.counter(
    "repro_frontier_rows_total",
    "Candidate rows gathered by the frontier engine (every mode) before masking.",
)
FRONTIER_INTERSECTIONS = REGISTRY.counter(
    "repro_frontier_intersections_total",
    "Bulk intersection/membership passes, by kernel, the same set in "
    "every mode (membership = one per non-pivot dependency ref, pooled, "
    "direct, iep = one per IEP block signature).",
    labels=("kernel",),
)
FRONTIER_SOURCES = REGISTRY.counter(
    "repro_frontier_sources_total",
    "Candidate-source decisions per depth, by choice (pool = auxiliary "
    "chain/group pool, csr = direct CSR rows).",
    labels=("source",),
)
MEMO_HITS = REGISTRY.counter(
    "repro_memo_hits_total",
    "Serving result-memo probes answered from the cache.",
)
MEMO_MISSES = REGISTRY.counter(
    "repro_memo_misses_total",
    "Serving result-memo probes that admitted a new primary execution.",
)
MEMO_COLLAPSED = REGISTRY.counter(
    "repro_memo_collapsed_total",
    "Duplicate submissions collapsed onto an in-flight primary "
    "(single-flight followers).",
)
MEMO_PUBLISHED = REGISTRY.counter(
    "repro_memo_published_total",
    "Maintained watch counts published into the serving result memo "
    "(one per watch per replica version).",
)
SERVICE_JOBS = REGISTRY.counter(
    "repro_service_jobs_total",
    "Serving jobs reaching a terminal state, by outcome "
    "(done, failed, cancelled).",
    labels=("state",),
)
SERVICE_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_service_queue_depth",
    "Live queued jobs across MatchService instances (gauge).",
)
SERVICE_JOB_SECONDS = REGISTRY.histogram(
    "repro_service_job_seconds",
    "Submit-to-terminal latency of serving jobs, seconds.",
)
SERVICE_QUEUE_WAIT_SECONDS = REGISTRY.histogram(
    "repro_service_queue_wait_seconds",
    "Time serving jobs spent queued before they started running, seconds.",
)
STREAM_DELTAS = REGISTRY.counter(
    "repro_stream_deltas_total",
    "Per-watch incremental delta evaluations in StreamSession.apply.",
)
DISTRIBUTED_TASKS = REGISTRY.counter(
    "repro_distributed_tasks_total",
    "Root-range tasks executed by the distributed backend's master loop.",
)
PARALLEL_TASKS = REGISTRY.counter(
    "repro_parallel_tasks_total",
    "Root-range tasks counted by the parallel backend "
    "(pool workers pull them one at a time; counted master-side).",
)
TRACES_COLLECTED = REGISTRY.counter(
    "repro_traces_collected_total",
    "Trace trees collected (sampled-in collect() calls).",
)

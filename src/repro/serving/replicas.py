"""Replica registry: the named graphs a service owns and mutates.

A :class:`Replica` binds one name to one data graph — immutable
(:class:`~repro.graph.csr.Graph`, labeled, directed) or mutable
(:class:`~repro.graph.dynamic.DynamicGraph`).  Two duties:

* **Freezing.**  Workers never execute on a mutable graph: ``freeze()``
  atomically captures ``(snapshot, version)`` under the replica lock,
  so a job runs on exactly the graph state its memo key names even if
  churn lands mid-flight.  ``DynamicGraph.snapshot()`` is memoised per
  version, so a quiescent replica hands every worker the *same* frozen
  object — and the identity-keyed session registry keeps hitting one
  shared plan cache.
* **Churn.**  ``apply_churn()`` is the single admin write path.  It
  routes through a :class:`~repro.streaming.session.StreamSession`
  rather than mutating the graph directly, so any streamed watches
  (``watch()``) are maintained incrementally across the mutation —
  post-churn, their counts are already warm, no recount needed.
* **Publishing.**  ``apply_churn()`` and ``watch()`` take a
  ``publish(version, watches)`` callback and call it before they
  release the replica lock, with the version the watches' counts are
  exact for.  ``freeze()`` takes the same lock, so no reader can
  capture a version before its counts are published: the service
  publishes them into its result memo, and a served count of a watched
  query is a memo hit.  The service layers memo invalidation on top.

Static replicas are deliberately write-free: ``apply_churn`` raises.
Mutability is declared by handing the registry a ``DynamicGraph``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

from repro.graph.csr import Graph
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import DynamicGraph
from repro.graph.labeled import LabeledGraph
from repro.streaming.session import StreamReport, StreamSession, WatchHandle

#: graph types a replica can hold.
_STATIC_TYPES = (Graph, LabeledGraph, DiGraph)

#: ``publish(version, watches)``: records the counts of ``watches``,
#: exact at replica ``version`` (called under the replica lock).
Publisher = Callable[[int, tuple[WatchHandle, ...]], None]


class Replica:
    """One named graph, its lock, and (when dynamic) its stream session."""

    def __init__(self, name: str, graph: Any):
        if not isinstance(graph, _STATIC_TYPES + (DynamicGraph,)):
            raise TypeError(
                "a replica holds a Graph, LabeledGraph, DiGraph or "
                f"DynamicGraph, got {type(graph).__name__}"
            )
        self.name = name
        self.graph = graph
        self.dynamic = isinstance(graph, DynamicGraph)
        self._lock = threading.RLock()
        #: created on first watch()/apply_churn(); owns the DynamicGraph.
        self._stream: StreamSession | None = None

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The mutation counter memo keys embed (0 forever when static)."""
        return self.graph.version if self.dynamic else 0

    def freeze(self) -> tuple[Any, int]:
        """Atomic ``(executable graph, version)`` capture.

        The pair is what makes concurrent churn safe: the returned graph
        is immutable, and the version is the one it was frozen at — a
        memo entry recorded under this version can never describe a
        different graph state.
        """
        if not self.dynamic:
            return self.graph, 0
        with self._lock:
            return self.graph.snapshot(), self.graph.version

    def _stream_session(self) -> StreamSession:
        if not self.dynamic:
            raise TypeError(
                f"replica {self.name!r} holds an immutable "
                f"{type(self.graph).__name__}; churn and watches need a "
                "DynamicGraph"
            )
        if self._stream is None:
            self._stream = StreamSession(self.graph)
        return self._stream

    # ------------------------------------------------------------------
    # the admin write path
    # ------------------------------------------------------------------
    def apply_churn(self, updates: Iterable[Any], *,
                    publish: Publisher | None = None) -> StreamReport:
        """Apply edge updates through the stream session (watches stay
        warm), then ``publish`` every watch at the new version."""
        with self._lock:
            stream = self._stream_session()
            report = stream.apply(updates)
            if publish is not None:
                publish(self.graph.version, stream.watches)
            return report

    def watch(self, query: Any, *, name: str | None = None,
              publish: Publisher | None = None) -> WatchHandle:
        """Maintain a query's count incrementally across future churn;
        ``publish`` receives its initial count at the current version."""
        with self._lock:
            handle = self._stream_session().watch(query, name=name)
            if publish is not None:
                publish(self.graph.version, (handle,))
            return handle

    def unwatch(self, handle: WatchHandle | str) -> None:
        """Stop maintaining a watch (by handle or name)."""
        with self._lock:
            self._stream_session().unwatch(handle)

    def watch_counts(self) -> dict[str, int]:
        """Current maintained counts of every watch (empty when none)."""
        with self._lock:
            if self._stream is None:
                return {}
            return self._stream.counts()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "dynamic" if self.dynamic else "static"
        return f"Replica({self.name!r}, {kind}, {self.graph!r})"


class ReplicaRegistry:
    """Name → :class:`Replica`, thread-safe, the service's graph directory."""

    def __init__(self):
        self._lock = threading.Lock()
        self._replicas: dict[str, Replica] = {}

    def add(self, name: str, graph: Any) -> Replica:
        """Register a graph under ``name`` (duplicate names are an error)."""
        replica = Replica(name, graph)
        with self._lock:
            if name in self._replicas:
                raise ValueError(f"replica {name!r} already registered")
            self._replicas[name] = replica
        return replica

    def get(self, name: str) -> Replica:
        with self._lock:
            try:
                return self._replicas[name]
            except KeyError:
                known = sorted(self._replicas) or ["<none>"]
                raise KeyError(
                    f"no replica named {name!r} (registered: {', '.join(known)})"
                ) from None

    def remove(self, name: str) -> None:
        with self._lock:
            if name not in self._replicas:
                raise KeyError(f"no replica named {name!r}")
            del self._replicas[name]

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._replicas))

    def snapshot(self) -> tuple[tuple[str, Replica], ...]:
        """Atomic ``(name, replica)`` capture, sorted by name.

        The read path for anything that iterates replicas
        (``MatchService.stats()``): ``names()`` followed by per-name
        ``get()`` calls races concurrent ``remove()`` — a name listed in
        the first call can be gone by the second, turning a stats poll
        into a spurious ``KeyError``.
        """
        with self._lock:
            return tuple(sorted(self._replicas.items()))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._replicas

    def __len__(self) -> int:
        with self._lock:
            return len(self._replicas)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReplicaRegistry({', '.join(self.names()) or 'empty'})"

"""The result memo: identical jobs between mutations are answered once.

The plan cache (:class:`~repro.core.session.MatchSession`) amortises
*preprocessing*; under serving traffic the execution itself is the
repeated cost — many clients asking "how many triangles?" against a
graph that has not changed since the last answer.  This module caches
the *results*, keyed by::

    (request fingerprint, graph name, DynamicGraph.version)

The version component makes invalidation free: a mutation bumps the
replica's version counter, so post-churn submissions compute a new key
and simply miss — no write ever has to chase down stale readers.  Stale
entries for dead versions age out of the LRU; :meth:`ResultMemo.
invalidate` additionally drops them eagerly (the service calls it on
``apply_churn`` so a hot-churn replica doesn't flush colder replicas'
entries by LRU pressure).

Single-flight: when a job for a key is already queued or running, a
duplicate submission does not enqueue a second execution — it attaches
to the in-flight primary as a *follower* and resolves with the same
outcome.  Under a thundering herd of identical queries exactly one
execution happens per (query, version).

Published results: a value need not come from an execution.  A dynamic
replica's stream watches hold exact counts that churn maintains
incrementally, and the service publishes each one
(:meth:`ResultMemo.publish`) under the key a count request for the
watched query computes at the version the count is exact for.  A
served count of a watched query is then an ordinary hit;
:attr:`MemoStats.published_hits` counts those hits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, NamedTuple

from repro.obs import metrics as obs_metrics
from repro.serving.jobs import Job


class MemoStats(NamedTuple):
    """Counters for the serving stats endpoint and the benchmark."""

    hits: int
    misses: int
    collapsed: int
    size: int
    evictions: int
    invalidated: int
    #: values stored by publish(), and the hits they answered
    published: int
    published_hits: int


class ResultMemo:
    """A bounded LRU of finished results plus the in-flight job index.

    Thread-safe; every method takes the internal lock.  The in-flight
    index is maintained by the service (register on admit, resolve on
    finalise) under the same lock that guards job transitions, so a
    duplicate can never slip between "primary finished" and "result
    recorded".
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("the result memo needs capacity >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: key -> (value, whether publish() stored it)
        self._results: OrderedDict[tuple, tuple[Any, bool]] = OrderedDict()
        self._inflight: dict[tuple, Job] = {}
        self._hits = 0
        self._misses = 0
        self._collapsed = 0
        self._evictions = 0
        self._invalidated = 0
        self._published = 0
        self._published_hits = 0

    @staticmethod
    def key_for(request: Any, graph_name: str, version: int) -> tuple:
        """The memo key: request fingerprint + replica identity + version."""
        return request.memo_fingerprint() + (graph_name, int(version))

    # ------------------------------------------------------------------
    # lookup / record
    # ------------------------------------------------------------------
    def lookup(self, key: tuple) -> "tuple[bool, Any, Job | None]":
        """One atomic admission probe: ``(cached?, value, inflight job)``.

        Exactly one of the three outcomes holds: a cached value (memo
        hit), an in-flight primary to follow (single-flight collapse —
        counted here), or a miss (the caller will enqueue a primary).
        """
        with self._lock:
            entry = self._results.get(key)
            if entry is not None:
                self._hits += 1
                obs_metrics.MEMO_HITS.inc()
                self._results.move_to_end(key)
                value, published = entry
                if published:
                    self._published_hits += 1
                return True, value, None
            primary = self._inflight.get(key)
            if primary is not None:
                self._collapsed += 1
                obs_metrics.MEMO_COLLAPSED.inc()
                return False, None, primary
            self._misses += 1
            obs_metrics.MEMO_MISSES.inc()
            return False, None, None

    def register_inflight(self, key: tuple, job: Job) -> None:
        with self._lock:
            self._inflight[key] = job

    def resolve(self, key: tuple, job: Job, value: Any, *, store: bool) -> None:
        """Retire an in-flight primary, recording its value on success.

        ``store=False`` (failure/cancellation/timeout) just clears the
        in-flight slot so the next identical submission re-executes.
        """
        with self._lock:
            if self._inflight.get(key) is job:
                del self._inflight[key]
            if store:
                self._store(key, value, published=False)

    def publish(self, key: tuple, value: Any) -> None:
        """Record a value known without executing, e.g. a watch's count.

        Unlike :meth:`resolve` it leaves the in-flight index alone: a
        primary already running for ``key`` still resolves itself, with
        the same value.
        """
        with self._lock:
            self._published += 1
            obs_metrics.MEMO_PUBLISHED.inc()
            self._store(key, value, published=True)

    def _store(self, key: tuple, value: Any, *, published: bool) -> None:
        """Insert or refresh one result (under the lock), evicting LRU."""
        self._results[key] = (value, published)
        self._results.move_to_end(key)
        while len(self._results) > self.capacity:
            self._results.popitem(last=False)
            self._evictions += 1

    # ------------------------------------------------------------------
    # invalidation / introspection
    # ------------------------------------------------------------------
    def invalidate(self, graph_name: str, *, below_version: int | None = None) -> int:
        """Eagerly drop entries for a replica; returns how many died.

        ``below_version`` keeps entries at or above that version (the
        churn path passes the new version, preserving any result a
        racing worker already computed against it).
        """
        with self._lock:
            doomed = [
                key
                for key in self._results
                if key[-2] == graph_name
                and (below_version is None or key[-1] < below_version)
            ]
            for key in doomed:
                del self._results[key]
            self._invalidated += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._results.clear()

    def stats(self) -> MemoStats:
        with self._lock:
            return MemoStats(
                hits=self._hits,
                misses=self._misses,
                collapsed=self._collapsed,
                size=len(self._results),
                evictions=self._evictions,
                invalidated=self._invalidated,
                published=self._published,
                published_hits=self._published_hits,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"ResultMemo(size={s.size}/{self.capacity}, hits={s.hits}, "
            f"misses={s.misses}, collapsed={s.collapsed})"
        )

"""Watched counts published into the result memo.

A dynamic replica's stream watches hold exact counts; the service
publishes each one into the memo at the version it is exact for, so a
served count of a watched query is a memo hit that never executes.
These tests pin that the published values are exact, that no reader
can see a new version before its counts are published, and that every
request with another key still executes.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.query import MatchQuery
from repro.core.session import MatchSession
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import erdos_renyi
from repro.pattern.catalog import get_pattern
from repro.serving import MatchRequest, MatchService, default_executor
from repro.streaming import random_churn

WATCHED = ("triangle", "house")


class CountingExecutor:
    """The default executor, counting the requests it runs."""

    def __init__(self):
        self.lock = threading.Lock()
        self.ran: list[MatchRequest] = []

    def __call__(self, graph, request, cancel_event):
        with self.lock:
            self.ran.append(request)
        return default_executor(graph, request, cancel_event)


def never_execute(graph, request, cancel_event):
    raise AssertionError(f"{request.describe()} executed")


def recount(graph, query) -> int:
    return MatchSession(graph).count(query).count


def dynamic_graph(seed: int = 5) -> DynamicGraph:
    return DynamicGraph.from_graph(erdos_renyi(30, 0.2, seed=seed))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_served_watch_counts_equal_a_recount_under_random_churn(seed):
    """Every served count of a watched query equals a recount on the
    snapshot its handle froze, and none of them executed."""
    dyn = dynamic_graph(seed)
    updates = random_churn(dyn, 24, seed=seed)
    with MatchService(n_workers=2, executor=never_execute) as svc:
        svc.add_graph("default", dyn)
        for name in WATCHED:
            svc.watch(get_pattern(name))
        handles = []
        for start in range(0, len(updates), 3):
            svc.apply_churn(updates[start : start + 3])
            handles += [svc.count(get_pattern(name)) for name in WATCHED]
        for handle in handles:
            assert handle.result(timeout=30) == recount(
                handle.graph, handle.request.query
            )
        stats = svc.stats()
    assert stats.memo.published_hits == stats.memo.hits == len(handles)
    assert stats.memo.misses == 0
    # one publication per watch at registration and after each batch
    assert stats.memo.published == len(WATCHED) * (1 + len(handles) // 2)


def test_reader_blocked_during_churn_hits_the_new_version():
    """A submit that waits on the replica lock while ``apply_churn``
    holds it freezes the new version and finds its count published."""
    dyn = dynamic_graph()
    u, v = next(
        (a, b) for a in range(30) for b in range(a + 1, 30) if not dyn.has_edge(a, b)
    )
    triangle = get_pattern("triangle")
    with MatchService(n_workers=1, executor=never_execute) as svc:
        replica = svc.add_graph("default", dyn)
        watch = svc.watch(triangle)
        before = replica.version

        lock = replica._lock
        waiting = threading.Event()

        class ObservedLock:
            """The replica lock, reporting when a second thread waits."""

            def __enter__(self):
                if not lock.acquire(blocking=False):
                    waiting.set()
                    lock.acquire()

            def __exit__(self, *exc):
                lock.release()

        replica._lock = ObservedLock()
        stream = replica._stream
        apply = stream.apply

        def apply_then_wait_for_reader(updates):
            report = apply(updates)
            assert waiting.wait(10), "the reader never reached the lock"
            return report

        stream.apply = apply_then_wait_for_reader
        reader_done = threading.Event()
        publish = svc._memo.publish

        def publish_after_reader(key, value):
            # the reader cannot finish while the lock is held; if the
            # count were published after the lock is released, the
            # reader would probe the memo first
            reader_done.wait(0.2)
            publish(key, value)

        svc._memo.publish = publish_after_reader
        handles = []

        def reader():
            handles.append(svc.count(triangle))
            reader_done.set()

        thread = threading.Thread(target=reader)
        churn = threading.Thread(target=svc.apply_churn, args=([("+", u, v)],))
        churn.start()
        thread.start()
        churn.join(30)
        thread.join(30)
        (handle,) = handles
        assert handle.version == before + 1 == replica.version
        assert handle.result(timeout=30) == watch.count == recount(
            handle.graph, MatchQuery(triangle)
        )
        assert svc.stats().memo.published_hits == 1


class TestStillExecutes:
    """Requests whose key no watch publishes run through the executor."""

    @pytest.fixture
    def served(self):
        executor = CountingExecutor()
        svc = MatchService(n_workers=1, executor=executor)
        svc.add_graph("default", dynamic_graph())
        svc.add_graph("static", erdos_renyi(30, 0.2, seed=5))
        self.watch = svc.watch(get_pattern("triangle"))
        svc.apply_churn(random_churn(svc.registry.get("default").graph, 4, seed=9))
        yield svc, executor
        svc.close()

    @pytest.mark.parametrize(
        "request_",
        [
            MatchRequest("enumerate", get_pattern("triangle"), limit=5),
            MatchRequest(
                "count", MatchQuery(get_pattern("triangle"), semantics="induced")
            ),
            MatchRequest("count", MatchQuery(get_pattern("triangle"), use_iep=False)),
            MatchRequest("count", get_pattern("rectangle")),
            MatchRequest("count", get_pattern("triangle"), graph="static"),
        ],
        ids=["enumerate", "induced", "other-plan-knobs", "unwatched", "static"],
    )
    def test_request_with_another_key_executes(self, served, request_):
        svc, executor = served
        handle = svc.submit(request_)
        value = handle.result(timeout=30)
        assert executor.ran == [request_]
        want = recount(handle.graph, request_.query)
        if request_.kind == "count":
            assert value == want
        else:
            assert len(value) == min(request_.limit, want)
        assert svc.stats().memo.published_hits == 0

    def test_unmemoised_submission_executes(self, served):
        svc, executor = served
        handle = svc.count(get_pattern("triangle"), memoise=False)
        assert handle.result(timeout=30) == self.watch.count
        assert len(executor.ran) == 1

    def test_dropped_watch_executes_from_the_next_version(self, served):
        svc, executor = served
        triangle = get_pattern("triangle")
        assert svc.count(triangle).result(timeout=30) == self.watch.count
        assert executor.ran == []
        svc.unwatch(self.watch)
        graph = svc.registry.get("default").graph
        svc.apply_churn(random_churn(graph, 2, seed=10))
        handle = svc.count(triangle)
        assert handle.result(timeout=30) == recount(handle.graph, MatchQuery(triangle))
        assert len(executor.ran) == 1


def test_unmemoised_service_publishes_nothing():
    executor = CountingExecutor()
    with MatchService(n_workers=1, memoise=False, executor=executor) as svc:
        svc.add_graph("default", dynamic_graph())
        triangle = get_pattern("triangle")
        watch = svc.watch(triangle)
        svc.apply_churn(random_churn(svc.registry.get("default").graph, 3, seed=4))
        assert svc.count(triangle).result(timeout=30) == watch.count
        stats = svc.stats()
    assert len(executor.ran) == 1
    assert stats.memo.published == stats.memo.hits == stats.memo.size == 0


def test_service_counters_balance():
    """Published hits are memo hits: every memoised submission is one
    hit, miss or collapse, and every miss or unmemoised one executes."""
    executor = CountingExecutor()
    dyn = dynamic_graph(7)
    updates = random_churn(dyn, 6, seed=7)
    with MatchService(n_workers=2, executor=executor) as svc:
        svc.add_graph("default", dyn)
        svc.watch(get_pattern("triangle"))
        requests = [
            (MatchRequest("count", get_pattern("triangle")), True),
            (MatchRequest("count", get_pattern("triangle")), True),
            (MatchRequest("count", get_pattern("rectangle")), True),
            (MatchRequest("enumerate", get_pattern("triangle"), limit=3), True),
            (MatchRequest("count", get_pattern("triangle")), False),
        ]
        handles = []
        for update in updates:
            svc.apply_churn([update])
            for request, memoise in requests:
                handle = svc.submit(request, memoise=memoise)
                handle.result(timeout=30)
                handles.append(handle)
        assert svc.drain(30)
        stats = svc.stats()
    memoised = sum(memoise for _, memoise in requests) * len(updates)
    assert stats.submitted == len(handles) == stats.completed
    assert stats.failed == stats.cancelled == stats.timed_out == stats.rejected == 0
    assert stats.memo.hits + stats.memo.misses + stats.memo.collapsed == memoised
    assert stats.memo.published_hits == stats.memo.hits == 2 * len(updates)
    assert len(executor.ran) == stats.memo.misses + len(handles) - memoised
    assert stats.memo.published == 1 + len(updates)
    assert stats.churn_batches == len(updates)

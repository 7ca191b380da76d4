"""Result memoisation: versioned keys, single-flight, invalidation."""

from __future__ import annotations

import pytest

from repro.graph.builder import graph_from_edges
from repro.graph.dynamic import DynamicGraph
from repro.pattern.catalog import get_pattern
from repro.serving import MatchRequest, MatchService, ResultMemo

from .conftest import job


class TestResultMemoUnit:
    def key(self, i, version=0, graph="g"):
        return ("count", ("fp", i), None, graph, version)

    def test_lookup_miss_then_hit(self):
        memo = ResultMemo(4)
        k = self.key(1)
        assert memo.lookup(k) == (False, None, None)
        memo.resolve(k, job_stub := object(), 42, store=True)  # noqa: F841
        cached, value, primary = memo.lookup(k)
        assert cached and value == 42 and primary is None
        stats = memo.stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_inflight_collapses(self):
        memo = ResultMemo(4)
        k = self.key(1)
        sentinel = object()
        memo.lookup(k)
        memo.register_inflight(k, sentinel)
        cached, _, primary = memo.lookup(k)
        assert not cached and primary is sentinel
        assert memo.stats().collapsed == 1
        # failure clears the slot without storing
        memo.resolve(k, sentinel, None, store=False)
        assert memo.lookup(k) == (False, None, None)

    def test_lru_eviction(self):
        memo = ResultMemo(2)
        for i in range(3):
            memo.resolve(self.key(i), object(), i, store=True)
        assert memo.lookup(self.key(0))[0] is False  # evicted
        assert memo.lookup(self.key(2))[0] is True
        assert memo.stats().evictions == 1

    def test_invalidate_by_graph_and_version(self):
        memo = ResultMemo(8)
        memo.resolve(self.key(1, version=0, graph="a"), object(), 1, store=True)
        memo.resolve(self.key(2, version=1, graph="a"), object(), 2, store=True)
        memo.resolve(self.key(3, version=0, graph="b"), object(), 3, store=True)
        assert memo.invalidate("a", below_version=1) == 1
        assert memo.lookup(self.key(2, version=1, graph="a"))[0] is True
        assert memo.lookup(self.key(3, version=0, graph="b"))[0] is True
        assert memo.invalidate("b") == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultMemo(0)


class TestServiceMemoisation:
    def test_repeat_count_is_a_memo_hit(self, triangle_graph, triangle):
        with MatchService(n_workers=1) as svc:
            svc.add_graph("default", triangle_graph)
            first = svc.count(triangle)
            assert first.result(timeout=30) == 1
            second = svc.count(triangle)
            assert second.result(timeout=30) == 1
            assert second.state == "done"
            stats = svc.stats()
            assert stats.memo.hits == 1
            assert stats.memo.misses == 1
            # the memo hit consumed no execution: one plan-cache miss,
            # zero further executions
            assert stats.completed == 2

    def test_memo_hits_share_one_finished_event(self, triangle_graph, triangle):
        """Jobs finished inside submit build no events of their own; a
        job that runs gets its own finished and cancel events."""
        with MatchService(n_workers=1) as svc:
            svc.add_graph("default", triangle_graph)
            miss = svc.count(triangle)
            assert miss.result(timeout=30) == 1
            hits = [svc.count(triangle) for _ in range(2)]
            assert [h.result() for h in hits] == [1, 1]
            assert all(h.wait(0) for h in hits)
            first, second = (h._job for h in hits)
            assert first._finished is second._finished
            assert first.cancel_event is None and second.cancel_event is None
            assert not hits[0].cancel()
            assert miss._job._finished is not first._finished
            assert miss._job.cancel_event is not None

    def test_memo_keys_distinguish_kind_and_limit(self, triangle_graph, triangle):
        with MatchService(n_workers=1) as svc:
            svc.add_graph("default", triangle_graph)
            svc.count(triangle).result(timeout=30)
            e1 = svc.enumerate(triangle, limit=1).result(timeout=30)
            e2 = svc.enumerate(triangle, limit=5).result(timeout=30)
            assert len(e1) == 1 and len(e2) == 1
            assert svc.stats().memo.misses == 3  # three distinct keys

    def test_single_flight_collapses_inflight_duplicates(
        self, fake_backend, triangle_graph
    ):
        svc = MatchService(n_workers=1, executor=fake_backend)
        svc.add_graph("default", triangle_graph)
        try:
            first = svc.submit(job(1))
            fake_backend.wait_started(1)
            second = svc.submit(job(1))  # identical, in flight -> follower
            third = svc.submit(job(1))
            fake_backend.gate.set()
            assert first.result(timeout=10) == 7
            assert second.result(timeout=10) == 7
            assert third.result(timeout=10) == 7
        finally:
            fake_backend.gate.set()
            svc.close()
        assert fake_backend.started == [1]  # exactly one execution
        stats = svc.stats()
        assert stats.memo.collapsed == 2
        assert stats.completed == 3

    def test_follower_of_failed_primary_fails_too(
        self, fake_backend, triangle_graph
    ):
        fake_backend.fail_on.add(1)
        svc = MatchService(n_workers=1, executor=fake_backend)
        svc.add_graph("default", triangle_graph)
        try:
            first = svc.submit(job(1))
            fake_backend.wait_started(1)
            second = svc.submit(job(1))
            fake_backend.gate.set()
            with pytest.raises(RuntimeError, match="injected failure"):
                first.result(timeout=10)
            with pytest.raises(RuntimeError, match="injected failure"):
                second.result(timeout=10)
            # a failure is not memoised: the next submission re-executes
            fake_backend.fail_on.clear()
            assert svc.submit(job(1)).result(timeout=10) == 7
        finally:
            fake_backend.gate.set()
            svc.close()
        assert fake_backend.started == [1, 1]

    def test_churn_invalidates_by_version(self):
        graph = graph_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        triangle = get_pattern("triangle")
        with MatchService(n_workers=1) as svc:
            svc.add_graph("default", DynamicGraph.from_graph(graph))
            assert svc.count(triangle).result(timeout=30) == 1
            svc.apply_churn([("+", 0, 3)])  # closes a second triangle
            post = svc.count(triangle)
            assert post.result(timeout=30) == 2
            stats = svc.stats()
            # both counts executed (different versions), nothing stale
            assert stats.memo.misses == 2 and stats.memo.hits == 0
            assert stats.churn_batches == 1
            # and the post-churn result is itself memoised
            assert svc.count(triangle).result(timeout=30) == 2
            assert svc.stats().memo.hits == 1

    def test_memoise_false_disables_reuse(self, triangle_graph, triangle):
        with MatchService(n_workers=1, memoise=False) as svc:
            svc.add_graph("default", triangle_graph)
            svc.count(triangle).result(timeout=30)
            svc.count(triangle).result(timeout=30)
            stats = svc.stats()
            assert stats.memo.hits == 0 and stats.memo.misses == 0

    def test_memo_hit_bypasses_a_full_queue(self, fake_backend, triangle_graph):
        svc = MatchService(n_workers=1, queue_limit=1, executor=fake_backend)
        svc.add_graph("default", triangle_graph)
        try:
            # memoise one result while the system is idle
            fake_backend.gate.set()
            svc.submit(job(42)).result(timeout=10)
            fake_backend.gate.clear()
            # pin the worker and fill the single queue slot
            svc.submit(job(0))
            fake_backend.wait_started(2)
            svc.submit(job(1))
            from repro.serving import ServiceOverloaded

            with pytest.raises(ServiceOverloaded):
                svc.submit(job(2))
            # identical to the memoised job: served despite the full queue
            hit = svc.submit(job(42))
            assert hit.result(timeout=10) == 7
        finally:
            fake_backend.gate.set()
            svc.close()


class TestRequestFingerprint:
    def test_fingerprint_covers_kind_query_and_limit(self, triangle):
        a = MatchRequest("count", triangle)
        b = MatchRequest("count", get_pattern("triangle"))
        assert a.memo_fingerprint() == b.memo_fingerprint()
        c = MatchRequest("enumerate", triangle, limit=5)
        d = MatchRequest("enumerate", triangle, limit=6)
        assert c.memo_fingerprint() != d.memo_fingerprint()
        assert a.memo_fingerprint() != c.memo_fingerprint()

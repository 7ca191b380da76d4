"""Queue semantics, lifecycle, callbacks and the asyncio front door.

Everything here runs against the event-gated :class:`FakeBackend`
(tests/serving/conftest.py) so states are held deterministically — no
sleeps, no timing races.  The exceptions are in ``TestCallerRuns``: its
stress test yields with ``time.sleep(0)``, and one test polls, with a
deadline, until the worker has parked.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time

import pytest

from repro.serving import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobCancelled,
    JobTimeout,
    MatchService,
    ServiceOverloaded,
)

from .conftest import job


@pytest.fixture
def service(fake_backend, triangle_graph):
    """One worker, no memo: every submission is an independent queue job."""
    svc = MatchService(
        n_workers=1, queue_limit=8, memoise=False, executor=fake_backend
    )
    svc.add_graph("default", triangle_graph)
    yield svc
    fake_backend.gate.set()
    svc.close()


class TestQueueOrdering:
    def test_priority_order_with_fifo_within_priority(self, service, fake_backend):
        blocker = service.submit(job(0))
        fake_backend.wait_started(1)
        # queued while the single worker is pinned: two at priority 5
        # (FIFO between them), one at 1, one at the default 0.
        service.submit(job(1))  # priority 0
        service.submit(job(2), priority=5)
        service.submit(job(3), priority=5)
        service.submit(job(4), priority=1)
        fake_backend.gate.set()
        assert service.drain(timeout=10)
        assert fake_backend.started == [0, 2, 3, 4, 1]
        assert blocker.result() == 7

    def test_fifo_among_equal_priorities(self, service, fake_backend):
        service.submit(job(0))
        fake_backend.wait_started(1)
        for i in range(1, 6):
            service.submit(job(i), priority=3)
        fake_backend.gate.set()
        assert service.drain(timeout=10)
        assert fake_backend.started == [0, 1, 2, 3, 4, 5]


class TestBackpressure:
    def test_overload_is_deterministic_at_high_water_mark(
        self, fake_backend, triangle_graph
    ):
        svc = MatchService(
            n_workers=1, queue_limit=3, memoise=False, executor=fake_backend
        )
        svc.add_graph("default", triangle_graph)
        try:
            svc.submit(job(0))  # taken by the worker
            fake_backend.wait_started(1)
            for i in range(1, 4):
                svc.submit(job(i))  # exactly queue_limit queued
            with pytest.raises(ServiceOverloaded):
                svc.submit(job(99))
            assert svc.stats().rejected == 1
            assert svc.stats().queue_depth == 3
        finally:
            fake_backend.gate.set()
            svc.close()
        assert 99 not in fake_backend.started

    def test_cancelling_a_queued_job_frees_its_slot(
        self, fake_backend, triangle_graph
    ):
        svc = MatchService(
            n_workers=1, queue_limit=2, memoise=False, executor=fake_backend
        )
        svc.add_graph("default", triangle_graph)
        try:
            svc.submit(job(0))
            fake_backend.wait_started(1)
            svc.submit(job(1))
            victim = svc.submit(job(2))
            with pytest.raises(ServiceOverloaded):
                svc.submit(job(3))
            assert victim.cancel()
            svc.submit(job(4))  # the freed slot admits this one
        finally:
            fake_backend.gate.set()
            svc.close()
        assert fake_backend.started == [0, 1, 4]


class TestCancellation:
    def test_cancel_queued_job_never_executes(self, service, fake_backend):
        service.submit(job(0))
        fake_backend.wait_started(1)
        victim = service.submit(job(1))
        assert victim.state == QUEUED
        assert victim.cancel()
        assert victim.state == CANCELLED
        with pytest.raises(JobCancelled):
            victim.result()
        fake_backend.gate.set()
        assert service.drain(timeout=10)
        assert fake_backend.started == [0]

    def test_cancel_running_job_resolves_immediately(self, service, fake_backend):
        fake_backend.cancel_waiters.add(0)
        victim = service.submit(job(0))
        fake_backend.wait_started(1)
        assert victim.state == RUNNING
        assert victim.cancel()
        assert victim.state == CANCELLED
        with pytest.raises(JobCancelled):
            victim.result(timeout=10)
        # the disowned worker unblocks (cancel_event fired) and the
        # service keeps serving
        after = service.submit(job(1))
        fake_backend.gate.set()
        assert after.result(timeout=10) == 7

    def test_cancel_finished_job_is_a_noop(self, service, fake_backend):
        fake_backend.gate.set()
        handle = service.submit(job(0))
        assert handle.result(timeout=10) == 7
        assert not handle.cancel()
        assert handle.state == DONE


class TestTimeouts:
    def test_timeout_fires_mid_run(self, service, fake_backend):
        fake_backend.cancel_waiters.add(0)  # job waits on its cancel event
        handle = service.submit(job(0), timeout=0.05)
        fake_backend.wait_started(1)
        with pytest.raises(JobTimeout):
            handle.result(timeout=10)
        assert handle.state == FAILED
        assert service.stats().timed_out == 1
        # service is healthy afterwards
        fake_backend.gate.set()
        assert service.submit(job(1)).result(timeout=10) == 7

    def test_timeout_fires_while_queued_and_frees_slot(
        self, fake_backend, triangle_graph
    ):
        svc = MatchService(
            n_workers=1, queue_limit=1, memoise=False, executor=fake_backend
        )
        svc.add_graph("default", triangle_graph)
        try:
            svc.submit(job(0))
            fake_backend.wait_started(1)
            doomed = svc.submit(job(1), timeout=0.05)
            with pytest.raises(JobTimeout):
                doomed.result(timeout=10)
            svc.submit(job(2))  # slot freed by the expired job
        finally:
            fake_backend.gate.set()
            svc.close()
        assert 1 not in fake_backend.started

    def test_finished_job_is_immune_to_its_stale_timer(self, service, fake_backend):
        fake_backend.gate.set()
        handle = service.submit(job(0), timeout=30.0)
        assert handle.result(timeout=10) == 7
        assert handle.state == DONE  # timer cancelled on completion


class TestCallerRuns:
    """``result()`` with no timeout runs a job that an idle worker would
    take next on the calling thread.  Holding the service lock keeps the
    worker off the queue, so which thread runs a job is deterministic;
    the lock is never held across a blocking wait."""

    @staticmethod
    def on_worker(service, thread) -> bool:
        return thread.name.startswith(f"{service.name}-worker")

    def test_result_without_timeout_offers_the_job_to_its_caller(
        self, service, fake_backend, monkeypatch
    ):
        offered = []
        run_in_caller = service._run_in_caller

        def spy(queued):
            offered.append(queued)
            run_in_caller(queued)

        monkeypatch.setattr(service, "_run_in_caller", spy)
        fake_backend.gate.set()
        plain = service.submit(job(0))
        assert plain.result() == 7
        timed = service.submit(job(1))
        assert timed.result(timeout=10) == 7
        assert offered == [plain._job]

    def test_next_job_runs_on_the_calling_thread(self, service, fake_backend):
        fake_backend.gate.set()
        with service._lock:  # the idle worker cannot pop the job first
            handle = service.submit(job(0))
            service._run_in_caller(handle._job)
            assert handle.state == DONE
        assert handle.result() == 7
        assert fake_backend.threads[0] is threading.current_thread()
        stats = service.stats()
        assert (stats.completed, stats.running, stats.queue_depth) == (1, 0, 0)
        assert handle.latency >= handle.queue_seconds >= 0.0

    def test_result_with_a_timeout_leaves_the_job_to_a_worker(
        self, service, fake_backend
    ):
        fake_backend.gate.set()
        handle = service.submit(job(0))
        assert handle.result(timeout=10) == 7
        assert self.on_worker(service, fake_backend.threads[0])

    def test_job_with_a_deadline_stays_with_the_workers(self, service, fake_backend):
        fake_backend.gate.set()
        with service._lock:
            handle = service.submit(job(0), timeout=10)
            service._run_in_caller(handle._job)
            assert handle.state == QUEUED
        assert handle.result() == 7
        assert self.on_worker(service, fake_backend.threads[0])

    def test_no_caller_run_while_every_worker_is_busy(self, service, fake_backend):
        service.submit(job(0))
        fake_backend.wait_started(1)  # the only worker is pinned
        queued = service.submit(job(1))
        service._run_in_caller(queued._job)  # returns at once
        assert queued.state == QUEUED
        assert fake_backend.started == [0]
        fake_backend.gate.set()
        assert queued.result(timeout=10) == 7
        assert self.on_worker(service, fake_backend.threads[1])

    def test_queue_order_is_kept(self, service, fake_backend):
        fake_backend.gate.set()
        with service._lock:
            low = service.submit(job(0))
            high = service.submit(job(1), priority=5)
            service._run_in_caller(low._job)  # not next in the queue
            assert low.state == QUEUED
            service._run_in_caller(high._job)  # next: runs here
            assert high.state == DONE
        assert low.result(timeout=10) == 7
        assert fake_backend.started == [1, 0]
        assert fake_backend.threads[1] is threading.current_thread()
        assert self.on_worker(service, fake_backend.threads[0])

    def test_a_slot_freed_by_the_caller_wakes_a_waiting_worker(
        self, service, fake_backend, monkeypatch
    ):
        fake_backend.gate.set()
        with service._lock:
            first = service.submit(job(0))
            # claim it as a caller would, without running it yet
            monkeypatch.setattr(service, "_run", lambda job: None)
            service._run_in_caller(first._job)
            monkeypatch.undo()
            assert first.state == RUNNING
        second = service.submit(job(1))
        # the only slot is taken: the worker parks with the job queued
        deadline = time.monotonic() + 10
        while not (service._not_empty._waiters and second.state == QUEUED):
            assert time.monotonic() < deadline, "worker never parked"
            time.sleep(0.001)
        with service._lock:
            service._finalize(first._job, DONE, value=7)
        assert second.result(timeout=10) == 7
        assert self.on_worker(service, fake_backend.threads[1])

    def test_closed_loop_clients_keep_the_worker_bound(self, triangle_graph):
        """More clients than workers, more workers than cores: every
        answer is right, no more jobs run at once than there are
        workers, and the counters balance."""
        n_workers, clients, per_client = 3, 6, 40
        lock = threading.Lock()
        running = [0, 0]  # now, peak

        def executor(graph, request, cancel_event):
            with lock:
                running[0] += 1
                running[1] = max(running[1], running[0])
            time.sleep(0)  # let the other threads in
            with lock:
                running[0] -= 1
            return request.limit

        svc = MatchService(
            n_workers=n_workers,
            queue_limit=clients * per_client,
            memoise=False,
            executor=executor,
        )
        svc.add_graph("default", triangle_graph)
        wrong = []

        def client(c):
            for i in range(per_client):
                label = c * per_client + i
                if svc.submit(job(label)).result() != label:
                    wrong.append(label)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            svc.close()
        assert wrong == []
        assert 1 <= running[1] <= n_workers
        stats = svc.stats()
        assert (stats.completed, stats.running, stats.queue_depth) == (
            clients * per_client, 0, 0
        )

    def test_an_interrupt_fails_the_job_and_propagates(self, triangle_graph):
        class Interrupt(BaseException):
            pass

        def executor(graph, request, cancel_event):
            raise Interrupt

        svc = MatchService(n_workers=1, memoise=False, executor=executor)
        svc.add_graph("default", triangle_graph)
        try:
            with svc._lock:
                handle = svc.submit(job(0))
                with pytest.raises(Interrupt):
                    svc._run_in_caller(handle._job)
            assert handle.state == FAILED
            with pytest.raises(Interrupt):
                handle.result()
            assert svc.stats().running == 0
        finally:
            svc.close()


class TestLifecycleAndCallbacks:
    def test_status_callback_sees_every_transition(self, service, fake_backend):
        states = []
        results = []
        handle = service.submit(
            job(0),
            on_status=lambda h: states.append(h.state),
            on_result=results.append,
        )
        fake_backend.gate.set()
        assert handle.result(timeout=10) == 7
        assert states == [QUEUED, RUNNING, DONE]
        assert results == [7]

    def test_failure_propagates_to_result(self, service, fake_backend):
        fake_backend.fail_on.add(0)
        fake_backend.gate.set()
        handle = service.submit(job(0))
        with pytest.raises(RuntimeError, match="injected failure"):
            handle.result(timeout=10)
        assert handle.state == FAILED
        assert isinstance(handle.exception(), RuntimeError)
        assert service.stats().failed == 1

    def test_latency_accounting(self, service, fake_backend):
        fake_backend.gate.set()
        handle = service.submit(job(0))
        assert handle.result(timeout=10) == 7
        assert handle.latency >= 0.0
        assert handle.queue_seconds >= 0.0
        assert handle.latency >= handle.queue_seconds

    def test_closed_service_rejects_submissions(self, fake_backend, triangle_graph):
        svc = MatchService(n_workers=1, executor=fake_backend)
        svc.add_graph("default", triangle_graph)
        fake_backend.gate.set()
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(job(0))

    def test_context_manager_drains_on_exit(self, fake_backend, triangle_graph):
        fake_backend.gate.set()
        with MatchService(n_workers=2, memoise=False,
                          executor=fake_backend) as svc:
            svc.add_graph("default", triangle_graph)
            handles = [svc.submit(job(i)) for i in range(5)]
        assert all(h.state == DONE for h in handles)


class TestAsyncFrontDoor:
    def test_await_handle(self, service, fake_backend):
        fake_backend.gate.set()

        async def go():
            return await service.submit(job(0))

        assert asyncio.run(go()) == 7

    def test_aresult_and_concurrent_awaits(self, service, fake_backend):
        async def go():
            h1 = service.submit(job(1))
            h2 = service.submit(job(2))
            # release the gate from a thread once both are in the system
            threading.Timer(0.01, fake_backend.gate.set).start()
            return await asyncio.gather(h1.aresult(), h2.aresult())

        assert asyncio.run(go()) == [7, 7]

    def test_await_propagates_failure(self, service, fake_backend):
        fake_backend.fail_on.add(0)
        fake_backend.gate.set()

        async def go():
            await service.submit(job(0))

        with pytest.raises(RuntimeError, match="injected failure"):
            asyncio.run(go())


class TestValidation:
    def test_bad_request_kind(self, triangle):
        from repro.serving import MatchRequest

        with pytest.raises(ValueError, match="unknown request kind"):
            MatchRequest("explode", triangle)

    def test_count_with_limit_rejected(self, triangle):
        from repro.serving import MatchRequest

        with pytest.raises(ValueError, match="limit only applies"):
            MatchRequest("count", triangle, limit=5)

    def test_unknown_replica(self, service, triangle):
        from repro.serving import MatchRequest

        with pytest.raises(KeyError, match="no replica named"):
            service.submit(MatchRequest("count", triangle, graph="nope"))

    def test_submit_needs_a_request(self, service):
        with pytest.raises(TypeError, match="MatchRequest"):
            service.submit("triangle")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MatchService(n_workers=0)
        with pytest.raises(ValueError):
            MatchService(queue_limit=0)


class TestRealExecution:
    """A handful of unmocked end-to-end counts (the integration seam)."""

    def test_count_and_enumerate_real(self, triangle_graph, triangle):
        with MatchService(n_workers=2) as svc:
            svc.add_graph("default", triangle_graph)
            assert svc.count(triangle).result(timeout=30) == 1
            embeddings = svc.enumerate(triangle, limit=10).result(timeout=30)
            assert len(embeddings) == 1
            assert sorted(embeddings[0]) == [0, 1, 2]

    def test_stats_expose_plan_cache_counters(self, triangle_graph, triangle):
        with MatchService(n_workers=1) as svc:
            svc.add_graph("default", triangle_graph)
            svc.count(triangle).result(timeout=30)
            svc.count(triangle, memoise=False).result(timeout=30)
            stats = svc.stats()
            info = stats.plan_caches["default"]
            # two executions, one plan: the second hit the plan cache
            assert info.misses >= 1
            assert info.hits >= 1

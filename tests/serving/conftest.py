"""Serving fixtures: tiny graphs and the event-gated fake backend.

The queue-semantics tests never sleep: every ordering is forced by
events — a job blocks on the fake backend's gate (or on its own
cancel event) until the test releases it, so QUEUED/RUNNING states are
held exactly as long as an assertion needs them.
"""

from __future__ import annotations

import threading

import pytest

from repro.graph.builder import graph_from_edges
from repro.pattern.catalog import get_pattern
from repro.serving import MatchRequest


class FakeBackend:
    """An event-gated executor: starts are observable, finishes are gated.

    Jobs are labelled by their request's ``limit`` (the tests submit
    enumerate requests with distinct limits so identical queries don't
    interact through memoisation when it is on).  A job waits on
    :attr:`gate` — or on its *own* cancel event when its label is in
    :attr:`cancel_waiters`, which is how mid-run timeout/cancellation
    is exercised deterministically.
    """

    def __init__(self, result=7):
        self.result = result
        self.cond = threading.Condition()
        self.started: list = []
        #: label -> the thread that ran the job
        self.threads: dict = {}
        self.finished: list = []
        self.gate = threading.Event()
        self.cancel_waiters: set = set()
        self.fail_on: set = set()

    def __call__(self, graph, request: MatchRequest, cancel_event):
        label = request.limit
        with self.cond:
            self.started.append(label)
            self.threads[label] = threading.current_thread()
            self.cond.notify_all()
        if label in self.cancel_waiters:
            assert cancel_event.wait(10), "cancel event never fired"
        else:
            assert self.gate.wait(10), "gate never opened"
        if label in self.fail_on:
            raise RuntimeError(f"injected failure for job {label}")
        with self.cond:
            self.finished.append(label)
        return self.result

    def wait_started(self, n: int, timeout: float = 10.0) -> None:
        with self.cond:
            assert self.cond.wait_for(lambda: len(self.started) >= n, timeout), (
                f"only {len(self.started)} of {n} jobs started"
            )


@pytest.fixture
def fake_backend():
    return FakeBackend()


@pytest.fixture
def triangle_graph():
    """One triangle plus a pendant edge — tiny, known counts."""
    return graph_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])


@pytest.fixture
def triangle():
    return get_pattern("triangle")


def job(limit: int, graph: str = "default") -> MatchRequest:
    """An enumerate request labelled by its limit (see FakeBackend)."""
    return MatchRequest("enumerate", get_pattern("triangle"), graph=graph,
                        limit=limit)

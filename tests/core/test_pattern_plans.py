"""The registry's shared pattern plans: exactness, isolation, bound, threads.

Sessions handed out by ``get_session`` share the graph-independent half
of plain planning (restriction sets, schedules, configurations and
their compiled plans) and only re-rank it on a new graph.  These tests
pin that the re-ranked plan is exactly the from-scratch plan on every
snapshot of a churning graph, that private sessions never touch the
shared plans, that the LRU bound and ``clear_sessions`` hold, and that
two threads missing on one pattern build its pattern plan once.
"""

from __future__ import annotations

import threading

import pytest

import repro.core.session as session_mod
from repro.core.query import MatchQuery
from repro.core.session import (
    MatchSession,
    PlanReport,
    clear_sessions,
    get_session,
    plan_plain,
)
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import erdos_renyi
from repro.graph.stats import GraphStats
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.pattern.catalog import get_pattern
from repro.serving import MatchService
from repro.streaming import random_churn

PATTERNS = ("triangle", "rectangle", "house", "pentagon", "P1", "P2", "P3", "P4")
N_TOGGLES = 20


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_sessions()
    yield
    clear_sessions()


def fresh_plan(query: MatchQuery, graph) -> PlanReport:
    return plan_plain(
        query.pattern,
        GraphStats.of(graph),
        use_iep=query.resolved_use_iep,
        max_restriction_sets=query.max_restriction_sets,
        dedup_schedules=query.dedup_schedules,
        codegen=False,
    )


def assert_same_plan(report: PlanReport, fresh: PlanReport) -> None:
    assert report.chosen.config == fresh.chosen.config
    assert report.chosen.predicted_cost == fresh.chosen.predicted_cost
    assert report.plan == fresh.plan
    assert [(r.config, r.predicted_cost, r.plan) for r in report.ranking] == [
        (r.config, r.predicted_cost, r.plan) for r in fresh.ranking
    ]
    assert report.restriction_sets == fresh.restriction_sets
    assert report.n_schedules == fresh.n_schedules


def test_registry_plans_equal_fresh_plans_on_every_churned_snapshot():
    base = erdos_renyi(20, 0.3, seed=7)
    dynamic = DynamicGraph.from_graph(base)
    updates = random_churn(dynamic, N_TOGGLES, seed=19)
    # one query per distinct plan key: P1/P2 share house/pentagon's
    # structure and an induced triangle is its edge query
    queries = list({
        q.fingerprint: q
        for q in (
            MatchQuery(get_pattern(name), semantics=semantics)
            for name in PATTERNS
            for semantics in ("edge", "induced")
        )
    }.values())
    hits0 = obs_metrics.PLAN_PATTERN_HITS.value
    service = MatchService(n_workers=2)
    try:
        service.add_graph("g", dynamic)
        signatures = set()
        for step, update in enumerate(updates):
            service.apply_churn([update], graph="g")
            handles = [service.count(q, graph="g") for q in queries]
            served = [h.result(timeout=60) for h in handles]
            snapshot = dynamic.snapshot()
            oracle = MatchSession(snapshot, backend="interpreter")
            assert served == [oracle.count(q).count for q in queries]
            registry = get_session(snapshot)
            signatures.add(registry.signature)
            for q in queries:
                entry = registry.plan_for(q)
                # every snapshot after the first only re-ranks
                assert entry.report.pattern_hit or step == 0
                assert_same_plan(entry.report, fresh_plan(q, snapshot))
                assert entry.plan == entry.report.plan
                assert entry.predicted_cost == entry.report.chosen.predicted_cost
    finally:
        service.close()
    # the churn moved the statistics the model ranks on
    assert len(signatures) > 1
    assert obs_metrics.PLAN_PATTERN_HITS.value - hits0 >= (N_TOGGLES - 1) * len(queries)


def test_second_snapshot_only_reranks_and_says_so():
    dynamic = DynamicGraph.from_graph(erdos_renyi(30, 0.25, seed=3))
    query = MatchQuery(get_pattern("house"))
    first = get_session(dynamic.snapshot()).plan_for(query)
    assert not first.report.pattern_hit
    assert first.report.seconds_restrictions > 0
    dynamic.add_edge(*next(
        (u, v) for u in range(30) for v in range(u + 1, 30)
        if not dynamic.has_edge(u, v)
    ))
    hits0 = obs_metrics.PLAN_PATTERN_HITS.value
    obs_trace.enable()
    try:
        result = get_session(dynamic.snapshot()).count(query)
    finally:
        obs_trace.disable()
    assert obs_metrics.PLAN_PATTERN_HITS.value - hits0 == 1
    (plan_span,) = result.trace.find("plan")
    assert plan_span.attrs["cache_hit"] is False
    assert plan_span.attrs["pattern_hit"] is True
    assert result.trace.find("restrictions") == []
    assert result.trace.find("schedules") == []
    assert len(result.trace.find("model")) == 1
    report = get_session(dynamic.snapshot()).plan_for(query).report
    assert report.seconds_restrictions == report.seconds_schedules == 0.0


def test_private_session_neither_reads_nor_writes_shared_plans():
    graph = erdos_renyi(30, 0.25, seed=5)
    other = erdos_renyi(30, 0.25, seed=6)
    query = MatchQuery(get_pattern("house"))
    # a private session's plan is not shared with the registry...
    MatchSession(graph).count(query)
    assert len(session_mod._PATTERN_PLANS) == 0
    # ...and a registry session's plan is not read by a private one
    get_session(other).count(query)
    assert len(session_mod._PATTERN_PLANS) == 1
    hits0 = obs_metrics.PLAN_PATTERN_HITS.value
    obs_trace.enable()
    try:
        result = MatchSession(graph).count(query)
    finally:
        obs_trace.disable()
    assert len(result.trace.find("restrictions")) == 1
    assert len(result.trace.find("schedules")) == 1
    assert result.trace.find("plan")[0].attrs["pattern_hit"] is False
    assert obs_metrics.PLAN_PATTERN_HITS.value == hits0
    assert len(session_mod._PATTERN_PLANS) == 1


def test_clear_sessions_empties_the_shared_plans_and_the_bound_holds(monkeypatch):
    graph = erdos_renyi(30, 0.25, seed=8)
    monkeypatch.setattr(session_mod, "_MAX_PATTERN_PLANS", 2)
    session = get_session(graph)
    for name in ("triangle", "rectangle", "house"):
        session.plan_for(MatchQuery(get_pattern(name)))
        assert len(session_mod._PATTERN_PLANS) <= 2
    kept = [key[0] for key in session_mod._PATTERN_PLANS]
    assert kept == [get_pattern("rectangle"), get_pattern("house")]
    # an IEP-free enumerate of house shares house's pattern plan
    list(session.enumerate(MatchQuery(get_pattern("house")), limit=1))
    assert len(session_mod._PATTERN_PLANS) == 2
    clear_sessions()
    assert len(session_mod._PATTERN_PLANS) == 0


def test_two_threads_missing_on_one_pattern_build_it_once(monkeypatch):
    dynamic = DynamicGraph.from_graph(erdos_renyi(30, 0.25, seed=9))
    first = dynamic.snapshot()
    dynamic.add_edge(*next(
        (u, v) for u in range(30) for v in range(u + 1, 30)
        if not dynamic.has_edge(u, v)
    ))
    second = dynamic.snapshot()
    query = MatchQuery(get_pattern("house"))

    real = session_mod.generate_restriction_sets
    calls = []
    entered = threading.Event()
    release = threading.Event()

    def gated(*args, **kwargs):
        calls.append(threading.current_thread().name)
        entered.set()
        assert release.wait(timeout=30)
        return real(*args, **kwargs)

    monkeypatch.setattr(session_mod, "generate_restriction_sets", gated)
    entries = {}

    def plan(name, graph):
        entries[name] = get_session(graph).plan_for(query)

    a = threading.Thread(target=plan, args=("a", first), name="a")
    b = threading.Thread(target=plan, args=("b", second), name="b")
    a.start()
    assert entered.wait(timeout=30)
    # a is inside the pattern plan's build; b misses on the same pattern
    b.start()
    b.join(timeout=0.2)
    assert b.is_alive()  # waiting for a's pattern plan, not building one
    release.set()
    a.join(timeout=30)
    b.join(timeout=30)
    assert calls == ["a"]
    assert not entries["a"].report.pattern_hit
    assert entries["b"].report.pattern_hit
    assert_same_plan(entries["a"].report, fresh_plan(query, first))
    assert_same_plan(entries["b"].report, fresh_plan(query, second))

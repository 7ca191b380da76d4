"""The registry's shared pattern plans: exactness, isolation, bound, threads.

Sessions handed out by ``get_session`` share the graph-independent half
of planning (restriction sets, schedules, configurations and their
priced shapes) and only re-rank it on a new graph.  These tests pin
that the re-ranked plan is exactly the from-scratch plan on every
snapshot of a churning graph and on a second labeled or directed graph,
that private sessions never touch the shared plans, that modes never
share a pattern plan, that the LRU bound and ``clear_sessions`` hold,
that two threads missing on one pattern build its pattern plan once,
and that every mode honours ``dedup_schedules``.
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
    kept = [key[1] for key in session_mod._PATTERN_PLANS]
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


# ---------------------------------------------------------------------------
# labeled and directed queries share pattern plans the same way
# ---------------------------------------------------------------------------
def _labeled_inputs():
    from repro.graph.labeled import assign_random_labels
    from repro.pattern.labeled import LabeledPattern

    query = MatchQuery(LabeledPattern(get_pattern("house"), (0, 1, 0, 1, 2)))
    first = assign_random_labels(erdos_renyi(40, 0.2, seed=1), 3, seed=2)
    second = assign_random_labels(erdos_renyi(40, 0.25, seed=3), 3, seed=4)
    return query, first, second


def _directed_inputs():
    from repro.graph.digraph import random_digraph
    from repro.pattern.directed import get_directed_pattern

    query = MatchQuery(get_directed_pattern("bifan"))
    return query, random_digraph(40, 0.1, seed=1), random_digraph(40, 0.15, seed=2)


@pytest.mark.parametrize("inputs", [_labeled_inputs, _directed_inputs], ids=["labeled", "directed"])
def test_second_graph_reranks_a_shared_labeled_or_directed_pattern_plan(inputs):
    query, first, second = inputs()
    assert not get_session(first).plan_for(query).report.pattern_hit
    obs_trace.enable()
    try:
        result = get_session(second).count(query)
    finally:
        obs_trace.disable()
    (plan_span,) = result.trace.find("plan")
    assert plan_span.attrs["pattern_hit"] is True
    assert result.trace.find("restrictions") == []
    registry = get_session(second).plan_for(query)
    private = MatchSession(second).plan_for(query)
    assert_same_plan(registry.report, private.report)
    assert registry.plan == private.plan
    assert result.count == MatchSession(second).count(query).count


def test_labeled_and_bare_patterns_do_not_share_a_pattern_plan():
    query, lgraph, _ = _labeled_inputs()
    get_session(lgraph).plan_for(query)
    bare = get_session(lgraph).plan_for(MatchQuery(query.pattern.pattern))
    assert not bare.report.pattern_hit
    assert len(session_mod._PATTERN_PLANS) == 2


def test_directed_pattern_and_its_skeleton_do_not_share_a_pattern_plan():
    query, digraph, _ = _directed_inputs()
    get_session(digraph).plan_for(query)
    skeleton = get_session(digraph.to_undirected()).plan_for(
        MatchQuery(query.pattern.skeleton())
    )
    assert not skeleton.report.pattern_hit
    assert len(session_mod._PATTERN_PLANS) == 2


# ---------------------------------------------------------------------------
# dedup_schedules holds in every mode
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "mode,name,labels,deduped,raw",
    [
        ("plain", "house", None, 8, 16),
        ("labeled", "clique-5", (0, 0, 0, 1, 1), 10, 120),
        ("labeled", "clique-4", (0, 0, 0, 0), 1, 24),
        ("labeled", "cycle-6", (0, 1, 0, 1, 0, 1), 16, 96),
        ("directed", "dcycle-4", None, 4, 16),
        ("directed", "outstar-4", None, 1, 24),
    ],
)
def test_every_mode_dedups_schedules_by_its_group_when_asked(mode, name, labels, deduped, raw):
    """Dedup keeps one schedule per orbit of the mode's group (labeled:
    label-preserving, directed: direction-preserving), and only then."""
    from repro.graph.digraph import random_digraph
    from repro.graph.labeled import assign_random_labels
    from repro.pattern.directed import get_directed_pattern
    from repro.pattern.labeled import LabeledPattern

    graph = erdos_renyi(30, 0.3, seed=5)
    pattern = get_pattern(name) if mode != "directed" else get_directed_pattern(name)
    if mode == "labeled":
        graph = assign_random_labels(graph, 2, seed=6)
        pattern = LabeledPattern(pattern, labels)
    elif mode == "directed":
        graph = random_digraph(30, 0.15, seed=7)
    for dedup, expected in ((True, deduped), (False, raw)):
        report = MatchSession(graph).plan_for(MatchQuery(pattern, dedup_schedules=dedup)).report
        assert report.n_schedules == expected
        assert len(report.ranking) == expected * len(report.restriction_sets)

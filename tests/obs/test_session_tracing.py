"""Integration: the instrumented layers produce the promised trees.

`MatchSession.count` is the root surface — it must attach a >=3-level
span tree to `MatchResult.trace` when tracing is on, attach nothing
when it is off, and never change a count either way.  The streaming
session's per-watch delta spans compose under any ambient collection.
"""

from __future__ import annotations

import json

import pytest

from repro import MatchQuery, MatchSession, get_pattern, obs
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import erdos_renyi
from repro.obs import metrics as obs_metrics
from repro.obs.trace import collect
from repro.streaming import StreamSession


@pytest.fixture
def tracing():
    obs.enable()
    yield
    obs.disable()


@pytest.fixture
def graph():
    return erdos_renyi(60, 0.2, seed=11)


class TestSessionTracing:
    def test_count_attaches_a_three_level_tree(self, tracing, graph):
        session = MatchSession(graph)
        result = session.count(
            MatchQuery(get_pattern("house"), backend="vectorised")
        )
        trace = result.trace
        assert trace is not None and trace.depth() >= 3
        [plan] = trace.find("plan")
        assert plan.attrs["cache_hit"] is False
        assert trace.find("model"), "cold planning must expose its stages"
        [execute] = trace.find("execute")
        assert execute.attrs["backend"] == "vectorised"
        assert execute.attrs["count"] == int(result)
        assert trace.find("depth")

    def test_warm_plan_marks_the_cache_hit(self, tracing, graph):
        session = MatchSession(graph)
        query = MatchQuery(get_pattern("triangle"))
        session.count(query)
        [plan] = session.count(query).trace.find("plan")
        assert plan.attrs["cache_hit"] is True

    def test_disabled_tracing_attaches_nothing(self, graph):
        assert not obs.enabled()
        result = MatchSession(graph).count(MatchQuery(get_pattern("triangle")))
        assert result.trace is None

    def test_counts_identical_tracing_on_and_off(self, graph):
        session = MatchSession(graph)
        query = MatchQuery(get_pattern("house"), backend="vectorised")
        off = int(session.count(query))
        obs.enable()
        try:
            on = int(session.count(query))
        finally:
            obs.disable()
        assert on == off

    def test_chrome_export_from_a_real_count(self, tracing, graph):
        result = MatchSession(graph).count(
            MatchQuery(get_pattern("house"), backend="vectorised")
        )
        payload = json.loads(result.trace.to_chrome_json())
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"match", "plan", "execute", "depth"} <= names

    def test_metrics_move_with_the_count(self, tracing, graph):
        before = obs_metrics.REGISTRY.snapshot()
        MatchSession(graph).count(
            MatchQuery(get_pattern("triangle"), backend="vectorised")
        )
        moved = obs_metrics.REGISTRY.delta(before)
        assert moved.get("repro_plan_cache_misses_total", 0) >= 1
        assert moved.get('repro_backend_counts_total{backend="vectorised"}', 0) >= 1
        assert moved.get("repro_traces_collected_total", 0) >= 1
        assert moved.get("repro_frontier_rows_total", 0) > 0


class TestDirectedIEPTracing:
    """The directed frontier engine's bulk IEP suffix is its own span."""

    def test_dpath4_count_shows_the_iep_span(self, tracing):
        from repro.graph.digraph import random_digraph
        from repro.pattern.directed import get_directed_pattern

        before = obs_metrics.REGISTRY.snapshot()
        result = MatchSession(random_digraph(40, 0.1, seed=2)).count(
            MatchQuery(get_directed_pattern("dpath-4"))
        )
        assert result.backend == "vectorised"
        [execute] = result.trace.find("execute")
        [iep] = [s for s in execute.find("depth") if "iep" in s.attrs]
        assert iep.attrs["iep"] == 2
        assert iep.attrs["count"] == int(result)
        assert iep.attrs["rows"] > 0 and iep.attrs["blocks"] == 3
        moved = obs_metrics.REGISTRY.delta(before)
        assert moved.get('repro_frontier_intersections_total{kernel="iep"}') == 3

    def test_explain_prints_the_iep_span(self, capsys):
        from repro.cli import main

        args = "count --mode directed --pattern dpath-4 --dataset wiki-vote"
        assert main(args.split() + ["--scale", "0.05", "--seed", "3", "--explain"]) == 0
        out = capsys.readouterr().out
        tree = out.split("where the time went:")[1]
        execute = tree.split("execute [")[1]
        assert "depth [depth=2 iep=2 rows=" in execute
        assert "blocks=3" in execute


class TestStreamingTracing:
    def test_delta_spans_compose_under_an_ambient_collection(self, tracing):
        stream = StreamSession(
            DynamicGraph.from_graph(erdos_renyi(30, 0.2, seed=5))
        )
        stream.watch(get_pattern("triangle"))
        before = obs_metrics.REGISTRY.snapshot()
        with collect("test") as trace:
            stream.apply([("+", 0, 1), ("-", 0, 1)])
        [apply_span] = trace.find("stream.apply")
        assert apply_span.attrs["updates"] == 2
        deltas = trace.find("stream.delta")
        assert deltas and all("watch" in s.attrs for s in deltas)
        moved = obs_metrics.REGISTRY.delta(before)
        assert moved.get("repro_stream_deltas_total", 0) >= len(deltas)

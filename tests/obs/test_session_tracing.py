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

    @pytest.mark.parametrize("mode", ["plain", "induced", "labeled", "directed"])
    def test_every_mode_shows_its_planning_stages(self, tracing, graph, mode):
        """One pipeline plans every mode, so every cold plan shows the
        same four stages under ``plan``."""
        from repro.graph.digraph import random_digraph
        from repro.graph.labeled import assign_random_labels
        from repro.pattern.directed import get_directed_pattern
        from repro.pattern.labeled import LabeledPattern

        if mode == "labeled":
            graph = assign_random_labels(graph, 2, seed=3)
            query = MatchQuery(LabeledPattern(get_pattern("house"), (0, 1, 0, 1, 1)))
        elif mode == "directed":
            graph = random_digraph(60, 0.1, seed=3)
            query = MatchQuery(get_directed_pattern("bifan"))
        else:
            semantics = "induced" if mode == "induced" else "edge"
            query = MatchQuery(get_pattern("house"), semantics=semantics)
        [plan] = MatchSession(graph).count(query).trace.find("plan")
        stages = [child.name for child in plan.children]
        assert stages == ["restrictions", "schedules", "model", "codegen"]
        assert plan.children[2].attrs["n_configs"] > 0

    @pytest.mark.parametrize("mode", ["plain", "induced", "labeled", "directed"])
    def test_every_mode_shows_the_same_depth_spans(self, tracing, graph, mode):
        """One frontier engine runs every mode, so every mode's depth
        spans carry the same attributes and its passes the same
        ``kernel`` and ``source`` labels."""
        from repro.graph.digraph import DiGraph
        from repro.graph.labeled import LabeledGraph
        from repro.pattern.directed import DiPattern
        from repro.pattern.labeled import LabeledPattern

        house = get_pattern("house")
        if mode == "labeled":
            graph = LabeledGraph(graph, [0] * graph.n_vertices)
            query = MatchQuery(LabeledPattern(house, (0,) * 5), use_iep=False)
        elif mode == "directed":
            graph = DiGraph.from_undirected(graph)
            arcs = house.edges + [(v, u) for u, v in house.edges]
            query = MatchQuery(DiPattern(5, arcs), use_iep=False)
        else:
            semantics = "induced" if mode == "induced" else "edge"
            query = MatchQuery(house, semantics=semantics, use_iep=False)
        before = obs_metrics.REGISTRY.snapshot()
        result = MatchSession(graph).count(query)
        assert result.backend == "vectorised"
        moved = obs_metrics.REGISTRY.delta(before)
        *extended, last = result.trace.find("depth")
        assert [sp.attrs["depth"] for sp in extended + [last]] == [1, 2, 3, 4]
        for sp in extended:
            assert set(sp.attrs) == {"depth", "rows", "kept", "source"}
        assert set(last.attrs) == {"depth", "last", "rows", "count"}
        labeled = {key for key in moved if key.startswith("repro_frontier_") and "{" in key}
        assert labeled <= {
            'repro_frontier_intersections_total{kernel="membership"}',
            'repro_frontier_intersections_total{kernel="direct"}',
            'repro_frontier_intersections_total{kernel="pooled"}',
            'repro_frontier_sources_total{source="csr"}',
            'repro_frontier_sources_total{source="pool"}',
        }
        # a source decision per extended depth (labeled and induced
        # plans also extend their innermost loop to mask it)
        sources = sum(v for k, v in moved.items() if "source=" in k)
        assert sources == len(extended) + (mode in ("labeled", "induced"))

    def test_restrictions_span_counts_algorithm_1_branches(self, tracing, graph):
        """A pentagon's search cuts branches whose K_n count cannot
        validate; the span reports both kinds of branch."""
        result = MatchSession(graph).count(MatchQuery(get_pattern("pentagon")))
        [res] = result.trace.find("restrictions")
        assert res.attrs["n_sets"] == 64
        assert res.attrs["explored"] > 0 and res.attrs["pruned"] > 0

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

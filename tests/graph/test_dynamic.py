"""DynamicGraph: incremental counters vs recomputation (property-tested)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import stats as stats_module
from repro.graph.csr import Graph
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import complete_graph, erdos_renyi
from repro.graph.stats import GraphStats, triangle_count


def recounted(graph: Graph) -> GraphStats:
    """Stats of a fresh copy: ``GraphStats.of`` on a snapshot itself
    returns the counters ``snapshot()`` registered for it."""
    return GraphStats.of(Graph(graph.indptr.copy(), graph.indices.copy()))


class TestBasics:
    def test_empty(self):
        g = DynamicGraph(5)
        assert g.n_vertices == 5
        assert g.n_edges == 0
        assert g.triangles == 0
        assert g.max_degree == 0

    def test_add_edge_returns_closed_triangles(self):
        g = DynamicGraph(4)
        assert g.add_edge(0, 1) == 0
        assert g.add_edge(1, 2) == 0
        assert g.add_edge(0, 2) == 1  # closes {0,1,2}
        assert g.triangles == 1

    def test_remove_edge_returns_opened_triangles(self):
        g = DynamicGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.remove_edge(0, 1) == 1
        assert g.triangles == 0

    def test_duplicate_edge_rejected(self):
        g = DynamicGraph(3, [(0, 1)])
        with pytest.raises(KeyError):
            g.add_edge(1, 0)

    def test_missing_edge_removal_rejected(self):
        g = DynamicGraph(3)
        with pytest.raises(KeyError):
            g.remove_edge(0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            DynamicGraph(2).add_edge(1, 1)

    def test_vertex_bounds(self):
        g = DynamicGraph(2)
        with pytest.raises(IndexError):
            g.add_edge(0, 5)
        with pytest.raises(IndexError):
            g.degree(-1)

    def test_add_vertex(self):
        g = DynamicGraph(2, [(0, 1)])
        vid = g.add_vertex()
        assert vid == 2
        g.add_edge(2, 0)
        assert g.n_edges == 2

    def test_neighbors_returns_copy(self):
        g = DynamicGraph(3, [(0, 1)])
        n = g.neighbors(0)
        n.add(99)
        assert g.neighbors(0) == {1}

    def test_edges_iteration(self):
        edges = [(0, 1), (1, 2), (0, 3)]
        g = DynamicGraph(4, edges)
        assert sorted(g.edges()) == sorted(edges)


class TestMaxDegree:
    def test_tracks_insertions(self):
        g = DynamicGraph(5)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.add_edge(0, 3)
        assert g.max_degree == 3

    def test_lazy_recompute_after_deletion(self):
        g = DynamicGraph(5, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert g.max_degree == 3
        g.remove_edge(0, 3)
        assert g.max_degree == 2

    def test_deletion_not_affecting_max(self):
        g = DynamicGraph(5, [(0, 1), (0, 2), (0, 3), (1, 2)])
        g.remove_edge(1, 2)  # degree-2 endpoints, max stays 3
        assert g.max_degree == 3


class TestSnapshotAndStats:
    def test_snapshot_roundtrip(self):
        und = erdos_renyi(40, 0.15, seed=5)
        dyn = DynamicGraph.from_graph(und)
        snap = dyn.snapshot()
        assert snap.n_vertices == und.n_vertices
        assert snap.n_edges == und.n_edges
        for v in range(und.n_vertices):
            assert np.array_equal(snap.neighbors(v), und.neighbors(v))

    def test_stats_match_recomputation(self):
        und = erdos_renyi(50, 0.2, seed=9)
        dyn = DynamicGraph.from_graph(und)
        assert dyn.stats() == GraphStats.of(und)

    def test_stats_after_mutations(self):
        dyn = DynamicGraph.from_graph(erdos_renyi(40, 0.2, seed=11))
        # remove a few edges, add a few others
        removed = list(dyn.edges())[:10]
        for u, v in removed:
            dyn.remove_edge(u, v)
        for u, v in [(0, 39), (1, 38), (2, 37)]:
            if not dyn.has_edge(u, v):
                dyn.add_edge(u, v)
        assert dyn.stats() == recounted(dyn.snapshot())

    def test_snapshot_session_plans_without_recounting(self, monkeypatch):
        """A session on a snapshot ranks with the maintained counters: the
        same stats and plan as a recount, and no triangle count."""
        from repro.core.query import MatchQuery
        from repro.core.session import MatchSession
        from repro.pattern.catalog import house

        dyn = DynamicGraph.from_graph(erdos_renyi(40, 0.2, seed=11))
        for u, v in list(dyn.edges())[:5]:
            dyn.remove_edge(u, v)
        snap = dyn.snapshot()
        copy = Graph(snap.indptr.copy(), snap.indices.copy())
        want_session = MatchSession(copy)
        want = want_session.plan_for(MatchQuery(house()))

        def no_recount(graph):
            raise AssertionError("a snapshot's triangles were recounted")

        monkeypatch.setattr(stats_module, "_oriented_pass", no_recount)
        session = MatchSession(snap)
        got = session.plan_for(MatchQuery(house()))
        assert session.stats == want_session.stats == dyn.stats()
        assert got.key == want.key
        assert got.predicted_cost == want.predicted_cost
        assert got.report.chosen == want.report.chosen
        assert got.report.ranking == want.report.ranking
        # a graph no DynamicGraph vouched for is still counted
        with pytest.raises(AssertionError, match="recounted"):
            GraphStats.of(Graph(snap.indptr.copy(), snap.indices.copy()))

    def test_complete_graph_triangles(self):
        dyn = DynamicGraph.from_graph(complete_graph(8))
        assert dyn.triangles == 8 * 7 * 6 // 6

    def test_snapshot_feeds_matcher(self):
        from repro.core.api import count_pattern
        from repro.pattern.catalog import triangle

        dyn = DynamicGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert count_pattern(dyn.snapshot(), triangle(), use_iep=False) == 1
        dyn.add_edge(1, 3)
        assert count_pattern(dyn.snapshot(), triangle(), use_iep=False) == 2


class TestSnapshotMemo:
    """snapshot() is memoised on the mutation version counter."""

    def test_repeated_snapshot_is_same_object(self):
        dyn = DynamicGraph.from_graph(erdos_renyi(25, 0.2, seed=3))
        assert dyn.snapshot() is dyn.snapshot()

    def test_add_edge_invalidates(self):
        dyn = DynamicGraph(4, [(0, 1), (1, 2)])
        first = dyn.snapshot()
        dyn.add_edge(0, 3)
        second = dyn.snapshot()
        assert second is not first
        assert second.n_edges == 3
        assert second is dyn.snapshot()

    def test_remove_edge_invalidates(self):
        dyn = DynamicGraph(4, [(0, 1), (1, 2)])
        first = dyn.snapshot()
        dyn.remove_edge(1, 2)
        assert dyn.snapshot() is not first
        assert dyn.snapshot().n_edges == 1

    def test_add_vertex_invalidates(self):
        dyn = DynamicGraph(3, [(0, 1)])
        first = dyn.snapshot()
        dyn.add_vertex()
        assert dyn.snapshot() is not first
        assert dyn.snapshot().n_vertices == 4

    def test_rejected_mutation_keeps_memo(self):
        dyn = DynamicGraph(3, [(0, 1)])
        first = dyn.snapshot()
        version = dyn.version
        with pytest.raises(KeyError):
            dyn.add_edge(0, 1)
        with pytest.raises(KeyError):
            dyn.remove_edge(1, 2)
        with pytest.raises(ValueError):
            dyn.add_edge(2, 2)
        assert dyn.version == version
        assert dyn.snapshot() is first

    def test_version_counts_successful_mutations(self):
        dyn = DynamicGraph(3)
        v0 = dyn.version
        dyn.add_edge(0, 1)
        dyn.add_vertex()
        dyn.remove_edge(0, 1)
        assert dyn.version == v0 + 3

    def test_name_change_rebuilds(self):
        dyn = DynamicGraph(3, [(0, 1)])
        anon = dyn.snapshot()
        named = dyn.snapshot(name="churn")
        assert named is not anon
        assert named.name == "churn"
        assert dyn.snapshot(name="churn") is named


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11), st.booleans()),
        max_size=80,
    )
)
def test_property_counters_never_drift(ops):
    """Random interleaved insertions/deletions: the incremental triangle
    count, edge count and max degree always equal recomputation."""
    dyn = DynamicGraph(12)
    for u, v, insert in ops:
        if u == v:
            continue
        if insert:
            if not dyn.has_edge(u, v):
                dyn.add_edge(u, v)
        else:
            if dyn.has_edge(u, v):
                dyn.remove_edge(u, v)
    snap = dyn.snapshot()
    assert dyn.n_edges == snap.n_edges
    assert dyn.triangles == triangle_count(snap)
    assert dyn.max_degree == (int(snap.degrees.max()) if snap.n_edges else 0)
    assert dyn.stats() == recounted(snap)


@settings(max_examples=15, deadline=None)
@given(st.integers(4, 30), st.integers(0, 10_000))
def test_property_insert_then_delete_is_identity(n, seed):
    """Adding and removing the same random edge leaves all counters intact."""
    und = erdos_renyi(n, 0.3, seed=seed)
    dyn = DynamicGraph.from_graph(und)
    before = (dyn.n_edges, dyn.triangles, dyn.stats())
    u, v = None, None
    for a in range(n):
        for b in range(a + 1, n):
            if not dyn.has_edge(a, b):
                u, v = a, b
                break
        if u is not None:
            break
    if u is None:  # complete graph: delete-then-add instead
        u, v = 0, 1
        opened = dyn.remove_edge(u, v)
        closed = dyn.add_edge(u, v)
        assert opened == closed
    else:
        closed = dyn.add_edge(u, v)
        opened = dyn.remove_edge(u, v)
        assert closed == opened
    assert (dyn.n_edges, dyn.triangles, dyn.stats()) == before

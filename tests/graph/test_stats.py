"""Graph statistics: triangle counting and the p1/p2 estimators."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph import stats
from repro.graph.builder import build_graph_arrays, graph_from_edges
from repro.graph.generators import complete_graph, empty_graph, erdos_renyi
from repro.graph.stats import (
    DegreeStats,
    GraphStats,
    _triangle_count_merge,
    degree_histogram,
    degree_statistics,
    global_clustering,
    triangle_count,
    wedge_count,
)


class TestTriangleCount:
    def test_single_triangle(self):
        g = graph_from_edges([(0, 1), (1, 2), (0, 2)])
        assert triangle_count(g) == 1

    def test_square_no_triangles(self):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert triangle_count(g) == 0

    def test_complete_graph(self):
        # C(n,3) triangles in K_n.
        for n in (3, 4, 5, 6, 7):
            assert triangle_count(complete_graph(n)) == n * (n - 1) * (n - 2) // 6

    def test_empty(self):
        g = graph_from_edges([(0, 1)])
        assert triangle_count(g) == 0

    def test_numpy_and_merge_agree(self):
        g = erdos_renyi(80, 0.15, seed=21)
        assert triangle_count(g) == _triangle_count_merge(g)

    def test_hub_graph_agrees_with_merge(self):
        # A hub adjacent to everything plus a sparse rim: the degree
        # orientation must still close every triangle exactly once.
        rim = erdos_renyi(300, 0.02, seed=5)
        g = graph_from_edges(list(rim.edges()) + [(300, v) for v in range(300)])
        expected = rim.n_edges + _triangle_count_merge(rim)  # hub + rim triangles
        assert triangle_count(g) == _triangle_count_merge(g) == expected


def _brute_force_triangles(graph) -> int:
    """Every vertex triple checked for its three edges."""
    adj = [set(graph.neighbors(v).tolist()) for v in range(graph.n_vertices)]
    return sum(
        1
        for a, b, c in combinations(range(graph.n_vertices), 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    )


@st.composite
def triangle_graphs(draw, max_vertices=16):
    """Random graphs with uncompacted ids: the top id is always present,
    so unused mid-range ids stay isolated vertices (or all are isolated)."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if not edges:
        return empty_graph(n)
    src, dst = (np.array(side) for side in zip(*edges))
    return build_graph_arrays(src, dst, compact_ids=False)[0]


@st.composite
def hub_graphs(draw):
    """A hub adjacent to a sparse random rim, plus optional rim cliques."""
    rim = draw(st.integers(min_value=3, max_value=14))
    pairs = [(u, v) for u in range(1, rim + 1) for v in range(u + 1, rim + 1)]
    rim_edges = draw(st.lists(st.sampled_from(pairs), max_size=rim, unique=True))
    clique = draw(st.integers(min_value=0, max_value=min(rim, 6)))
    clique_edges = list(combinations(range(1, clique + 1), 2))
    return graph_from_edges([(0, v) for v in range(1, rim + 1)] + rim_edges + clique_edges)


PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestTriangleCountProperties:
    """The numpy wedge-probe count against the merge oracle and brute force."""

    @given(graph=st.one_of(triangle_graphs(), hub_graphs()))
    @PROPERTY_SETTINGS
    def test_agrees_with_oracles(self, graph):
        expected = _brute_force_triangles(graph)
        assert _triangle_count_merge(graph) == expected
        assert triangle_count(graph) == expected

    @given(graph=st.one_of(triangle_graphs(), hub_graphs()), chunk=st.integers(1, 5))
    @PROPERTY_SETTINGS
    def test_multi_chunk_runs_agree(self, graph, chunk):
        # A tiny chunk splits the wedge probes into many bulk calls,
        # including single-entry chunks larger than the budget.
        expected = _triangle_count_merge(graph)
        original = stats._WEDGE_CHUNK
        stats._WEDGE_CHUNK = chunk
        try:
            assert triangle_count(graph) == expected
        finally:
            stats._WEDGE_CHUNK = original

    def test_cliques(self):
        for n in range(1, 9):
            assert triangle_count(complete_graph(n)) == n * (n - 1) * (n - 2) // 6

    def test_multi_chunk_on_a_larger_graph(self, monkeypatch):
        g = erdos_renyi(120, 0.2, seed=8)
        expected = _triangle_count_merge(g)
        monkeypatch.setattr(stats, "_WEDGE_CHUNK", 97)
        assert triangle_count(g) == expected


class TestWedgesAndClustering:
    def test_wedges_of_star(self):
        g = graph_from_edges([(0, 1), (0, 2), (0, 3)])
        assert wedge_count(g) == 3  # C(3,2) centred at the hub

    def test_clustering_of_clique_is_one(self):
        assert global_clustering(complete_graph(6)) == pytest.approx(1.0)

    def test_clustering_of_star_is_zero(self):
        g = graph_from_edges([(0, i) for i in range(1, 6)])
        assert global_clustering(g) == 0.0

    def test_degree_histogram(self):
        g = graph_from_edges([(0, 1), (0, 2), (0, 3)])
        hist = degree_histogram(g)
        assert hist[1] == 3 and hist[3] == 1


class TestGraphStats:
    def test_of(self):
        g = complete_graph(5)
        s = GraphStats.of(g)
        assert s.n_vertices == 5
        assert s.n_edges == 10
        assert s.triangles == 10
        assert s.max_degree == 4
        assert s.tri_cnt == 60  # 6 embeddings per distinct triangle

    def test_p1_complete_graph(self):
        s = GraphStats.of(complete_graph(10))
        # p1 = 2E/V^2 = 90/100
        assert s.p1 == pytest.approx(0.9)

    def test_p2_complete_graph(self):
        s = GraphStats.of(complete_graph(10))
        # tri_cnt * V / (2E)^2 = 720*10 / 8100 ≈ 0.888 — close to 1 as
        # the estimator's independence assumption intends for cliques.
        assert 0.5 < s.p2 <= 1.1

    def test_expected_candidate_size_base_cases(self):
        s = GraphStats.of(complete_graph(10))
        assert s.expected_candidate_size(0) == 10.0
        assert s.expected_candidate_size(1) == pytest.approx(s.avg_degree)

    def test_expected_candidate_size_decreases(self):
        g = erdos_renyi(200, 0.08, seed=5)
        s = GraphStats.of(g)
        sizes = [s.expected_candidate_size(x) for x in range(4)]
        assert all(sizes[i] >= sizes[i + 1] for i in range(3))

    def test_negative_neighborhoods_rejected(self):
        s = GraphStats.of(complete_graph(4))
        with pytest.raises(ValueError):
            s.expected_candidate_size(-1)

    def test_describe_mentions_key_numbers(self):
        s = GraphStats.of(complete_graph(4))
        text = s.describe()
        assert "|V|=4" in text and "|E|=6" in text

    def test_empty_graph_stats(self):
        from repro.graph.generators import empty_graph

        s = GraphStats.of(empty_graph(4))
        assert s.p1 == 0.0 and s.p2 == 0.0 and s.avg_degree == 0.0


class TestDegreeStats:
    """The O(1) degree-only summary feeding runtime cost gates."""

    def test_matches_graphstats_on_shared_quantities(self):
        g = erdos_renyi(120, 0.1, seed=3)
        full = GraphStats.of(g)
        cheap = degree_statistics(g)
        assert cheap.n_vertices == full.n_vertices
        assert cheap.n_edges == full.n_edges
        assert cheap.avg_degree == pytest.approx(full.avg_degree)
        assert cheap.p1 == pytest.approx(full.p1)

    def test_expected_pool_size_base_cases(self):
        s = DegreeStats.of(complete_graph(10))
        assert s.expected_pool_size(0) == 10.0
        assert s.expected_pool_size(1) == pytest.approx(10.0 * s.p1)

    def test_expected_pool_size_agrees_with_full_estimator_at_one(self):
        # The proxy and the paper's estimator coincide at n=1 (both are
        # V * p1); beyond that they diverge only through p2 vs p1.
        g = erdos_renyi(150, 0.15, seed=11)
        full = GraphStats.of(g)
        cheap = DegreeStats.of(g)
        assert cheap.expected_pool_size(1) == pytest.approx(
            full.expected_candidate_size(1)
        )

    def test_expected_pool_size_decreases(self):
        s = DegreeStats.of(erdos_renyi(200, 0.08, seed=5))
        sizes = [s.expected_pool_size(k) for k in range(4)]
        assert all(sizes[i] >= sizes[i + 1] for i in range(3))

    def test_negative_neighborhoods_rejected(self):
        with pytest.raises(ValueError):
            DegreeStats.of(complete_graph(4)).expected_pool_size(-1)

    def test_empty_graph(self):
        from repro.graph.generators import empty_graph

        s = degree_statistics(empty_graph(5))
        assert s.avg_degree == 0.0 and s.p1 == 0.0

"""Graph statistics: triangle counting and the p1/p2 estimators."""

import numpy as np
import pytest

from repro.graph.builder import graph_from_edges
from repro.graph.generators import complete_graph, erdos_renyi
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

    def test_scipy_and_merge_agree(self):
        g = erdos_renyi(80, 0.15, seed=21)
        assert triangle_count(g) == _triangle_count_merge(g)

    def test_hub_graph_agrees_with_merge(self):
        # A hub adjacent to everything plus a sparse rim: the degree
        # orientation must still close every triangle exactly once.
        rim = erdos_renyi(300, 0.02, seed=5)
        g = graph_from_edges(list(rim.edges()) + [(300, v) for v in range(300)])
        expected = rim.n_edges + _triangle_count_merge(rim)  # hub + rim triangles
        assert triangle_count(g) == _triangle_count_merge(g) == expected


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

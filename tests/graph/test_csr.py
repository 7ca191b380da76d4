"""CSR graph invariants and accessors."""

import numpy as np
import pytest

from repro.graph.builder import graph_from_edges
from repro.graph.csr import Graph
from repro.graph.generators import complete_graph, empty_graph


@pytest.fixture
def path4():
    return graph_from_edges([(0, 1), (1, 2), (2, 3)])


class TestConstruction:
    def test_counts(self, path4):
        assert path4.n_vertices == 4
        assert path4.n_edges == 3

    def test_neighbors_sorted(self, path4):
        for v in range(4):
            nbrs = path4.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)

    def test_degree(self, path4):
        assert [path4.degree(v) for v in range(4)] == [1, 2, 2, 1]
        assert path4.degrees.tolist() == [1, 2, 2, 1]
        assert path4.max_degree == 2
        assert path4.avg_degree == pytest.approx(1.5)

    def test_rejects_malformed_indptr(self):
        with pytest.raises(ValueError):
            Graph(np.array([1, 2]), np.array([0]))

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 2, 1, 2]), np.array([1, 0]))

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 1, 2]), np.array([0, 5]))

    def test_rejects_unsorted_rows(self):
        # vertex 0 -> [2, 1] unsorted
        with pytest.raises(ValueError):
            Graph(np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]))

    def test_rejects_duplicate_neighbors(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 2, 4]), np.array([1, 1, 0, 0]))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(np.array([0, 1, 2]), np.array([0, 0]))


class TestQueries:
    def test_has_edge_symmetric(self, path4):
        assert path4.has_edge(0, 1) and path4.has_edge(1, 0)
        assert not path4.has_edge(0, 2)
        assert not path4.has_edge(0, 0)

    def test_has_edge_out_of_range(self, path4):
        assert not path4.has_edge(-1, 2)
        assert not path4.has_edge(0, 99)

    def test_edges_iteration(self, path4):
        assert sorted(path4.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_edges_each_once(self):
        g = complete_graph(5)
        edges = list(g.edges())
        assert len(edges) == 10
        assert len(set(edges)) == 10
        assert all(u < v for u, v in edges)

    def test_vertices(self, path4):
        assert path4.vertices().tolist() == [0, 1, 2, 3]


class TestTransforms:
    def test_subgraph_of_path(self, path4):
        sub = path4.subgraph(np.array([1, 2, 3]))
        assert sub.n_vertices == 3
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_subgraph_drops_external_edges(self, path4):
        sub = path4.subgraph(np.array([0, 2]))
        assert sub.n_vertices == 2
        assert list(sub.edges()) == []

    def test_empty_graph(self):
        g = empty_graph(5)
        assert g.n_vertices == 5
        assert g.n_edges == 0
        assert list(g.edges()) == []


class TestDunder:
    def test_equality(self, path4):
        other = graph_from_edges([(0, 1), (1, 2), (2, 3)])
        assert path4 == other
        assert hash(path4) == hash(other)

    def test_inequality(self, path4):
        other = graph_from_edges([(0, 1), (1, 2), (0, 3)])
        assert path4 != other

    def test_eq_other_type(self, path4):
        assert path4 != "graph"

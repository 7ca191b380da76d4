"""StreamSession and DeltaExecutor: maintained counts stay exact."""

from __future__ import annotations

import pytest

from repro.core.api import count_pattern
from repro.core.query import MatchQuery
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import erdos_renyi
from repro.pattern.catalog import clique, house, rectangle, triangle
from repro.streaming import (
    DeltaExecutor,
    EdgeUpdate,
    StreamSession,
    delta_plan_for,
    read_churn_file,
)


def fresh_session(n=30, p=0.2, seed=7, **kwargs) -> StreamSession:
    return StreamSession(DynamicGraph.from_graph(erdos_renyi(n, p, seed=seed)), **kwargs)


class TestEdgeUpdate:
    def test_coerce_aliases(self):
        assert EdgeUpdate.coerce(("add", 1, 2)) == EdgeUpdate("+", 1, 2)
        assert EdgeUpdate.coerce(("REMOVE", 1, 2)) == EdgeUpdate("-", 1, 2)
        assert EdgeUpdate.coerce(("i", "3", "4")) == EdgeUpdate("+", 3, 4)
        assert EdgeUpdate.coerce(EdgeUpdate("-", 0, 1)) == EdgeUpdate("-", 0, 1)

    def test_coerce_rejects_bad_shapes(self):
        with pytest.raises(TypeError):
            EdgeUpdate.coerce((1, 2))
        with pytest.raises(ValueError):
            EdgeUpdate.coerce(("swap", 1, 2))
        with pytest.raises(ValueError):
            EdgeUpdate("x", 0, 1)

    def test_churn_file_roundtrip(self, tmp_path):
        path = tmp_path / "churn.txt"
        path.write_text("# a comment\n+ 0 1\n\n- 2 3  # trailing\nadd 4 5\n")
        assert read_churn_file(path) == [
            EdgeUpdate("+", 0, 1),
            EdgeUpdate("-", 2, 3),
            EdgeUpdate("+", 4, 5),
        ]

    def test_churn_file_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+ 0 1\n+ 0\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            read_churn_file(path)


class TestWatch:
    def test_initial_count_matches_full_count(self):
        stream = fresh_session()
        snap = stream.snapshot()
        h = stream.watch(triangle())
        assert h.count == count_pattern(snap, triangle())

    def test_watch_names_unique_and_customisable(self):
        stream = fresh_session()
        a = stream.watch(triangle())
        b = stream.watch(triangle())
        c = stream.watch(house(), name="roofs")
        assert a.name == "triangle"
        assert b.name == "triangle-2"
        assert c.name == "roofs"
        with pytest.raises(ValueError, match="already in use"):
            stream.watch(rectangle(), name="roofs")

    def test_unwatch(self):
        stream = fresh_session()
        h = stream.watch(triangle())
        stream.unwatch(h)
        assert stream.counts() == {}
        with pytest.raises(KeyError):
            stream.unwatch("triangle")

    def test_rejects_non_plain_or_induced(self):
        stream = fresh_session()
        with pytest.raises(ValueError, match="edge-semantics"):
            stream.watch(MatchQuery(triangle(), semantics="induced"))

    def test_accepts_immutable_graph(self):
        base = erdos_renyi(20, 0.2, seed=1)
        stream = StreamSession(base)
        h = stream.watch(triangle())
        assert h.count == count_pattern(base, triangle())
        with pytest.raises(TypeError):
            StreamSession([1, 2, 3])


class TestApply:
    def test_insert_delta_matches_recount(self):
        stream = fresh_session()
        stream.watch(triangle())
        stream.watch(house())
        stream.apply([("+", 0, 1)]) if not stream.graph.has_edge(0, 1) else None
        report = stream.apply(
            [("+", u, v) for u, v in [(0, 14), (3, 22)]
             if not stream.graph.has_edge(u, v)]
        )
        assert stream.counts() == stream.expected_counts()
        assert report.n_deletes == 0

    def test_triangle_insert_delta_equals_closed_triangles(self):
        stream = fresh_session(seed=3)
        h = stream.watch(triangle())
        u, v = next(
            (a, b) for a in range(30) for b in range(a + 1, 30)
            if not stream.graph.has_edge(a, b)
        )
        expected = len(
            stream.graph.neighbors(u) & stream.graph.neighbors(v)
        )
        report = stream.apply([("+", u, v)])
        assert report.deltas[h.name] == expected

    def test_insert_then_delete_restores_count(self):
        stream = fresh_session()
        h = stream.watch(house())
        before = h.count
        u, v = next(
            (a, b) for a in range(30) for b in range(a + 1, 30)
            if not stream.graph.has_edge(a, b)
        )
        up = stream.apply([("+", u, v)])
        down = stream.apply([("-", u, v)])
        assert h.count == before
        assert up.deltas[h.name] == -down.deltas[h.name]

    def test_mixed_batch_sequential_semantics(self):
        """Insert and delete of the *same* edge inside one batch."""
        stream = fresh_session()
        h = stream.watch(triangle())
        before = h.count
        u, v = next(
            (a, b) for a in range(30) for b in range(a + 1, 30)
            if not stream.graph.has_edge(a, b)
        )
        report = stream.apply([("+", u, v), ("-", u, v)])
        assert h.count == before
        assert report.deltas[h.name] == 0
        assert not stream.graph.has_edge(u, v)

    def test_mixed_batch_matches_recount(self):
        setup = fresh_session(seed=11).graph
        free = [
            (a, b) for a in range(30) for b in range(a + 1, 30)
            if not setup.has_edge(a, b)
        ]
        present = sorted(setup.edges())
        batch = [
            ("-", *present[0]),
            ("+", *free[0]),
            ("+", *free[1]),
            ("-", *free[0]),
        ]
        stream = fresh_session(seed=11)
        stream.watch(house())
        stream.watch(clique(4))
        report = stream.apply(batch)
        assert (report.n_inserts, report.n_deletes) == (2, 2)
        assert stream.counts() == stream.expected_counts()

    def test_vertex_growth(self):
        stream = fresh_session(n=10)
        h = stream.watch(triangle())
        stream.apply([("+", 2, 12), ("+", 5, 12)])
        assert stream.graph.n_vertices == 13
        assert stream.counts() == stream.expected_counts()
        strict = fresh_session(n=10, allow_vertex_growth=False)
        strict.watch(triangle())
        with pytest.raises(IndexError):
            strict.apply([("+", 2, 12)])

    def test_vertex_growth_capped(self):
        """A typo'd huge id is rejected atomically, not allocated."""
        stream = fresh_session(n=10, max_vertex_growth=5)
        h = stream.watch(triangle())
        count, version = h.count, stream.graph.version
        with pytest.raises(ValueError, match="max_vertex_growth"):
            stream.apply([("+", 0, 999_999_999)])
        assert stream.graph.n_vertices == 10
        assert stream.graph.version == version
        assert h.count == count
        stream.apply([("+", 0, 14)])  # within the cap: grows fine
        assert stream.graph.n_vertices == 15
        with pytest.raises(ValueError):
            StreamSession(stream.graph, max_vertex_growth=-1)

    def test_report_fields(self):
        stream = fresh_session()
        h = stream.watch(triangle())
        u, v = next(
            (a, b) for a in range(30) for b in range(a + 1, 30)
            if not stream.graph.has_edge(a, b)
        )
        report = stream.apply([("+", u, v)])
        (w,) = report.watches
        assert w.name == h.name
        assert w.count_before + w.delta == w.count == h.count
        assert report.n_updates == report.n_inserts == 1
        assert report.seconds >= w.seconds >= 0
        assert h.name in report.describe()

    def test_empty_batch(self):
        stream = fresh_session()
        h = stream.watch(triangle())
        before = h.count
        report = stream.apply([])
        assert report.n_updates == 0
        assert h.count == before


class TestAtomicRejection:
    """A bad batch raises before any mutation or count change."""

    @pytest.mark.parametrize(
        "batch, exc",
        [
            ([("+", 0, 0)], ValueError),  # self-loop
            ([("+", -1, 2)], ValueError),  # negative id
            ([("+", 0, 1), ("+", 1, 0)], KeyError),  # duplicate insert
            ([("-", 0, 1), ("-", 0, 1)], KeyError),  # double delete
            ([("-", 27, 28)], KeyError),  # missing delete (absent edge)
            ([("+", 5, 6), ("+", 0, 0)], ValueError),  # bad tail poisons all
        ],
    )
    def test_rejection_leaves_state_untouched(self, batch, exc):
        stream = fresh_session(seed=13)
        g = stream.graph
        if not g.has_edge(0, 1):  # the double-delete case needs it present
            g.add_edge(0, 1)
        for u, v in [(27, 28), (5, 6)]:  # missing-delete / valid-head cases
            if g.has_edge(u, v):
                g.remove_edge(u, v)
        h = stream.watch(triangle())
        version = g.version
        count = h.count
        with pytest.raises(exc):
            stream.apply(batch)
        assert g.version == version
        assert h.count == count
        assert stream.counts() == stream.expected_counts()

    def test_duplicate_insert_of_existing_edge(self):
        stream = fresh_session()
        if not stream.graph.has_edge(0, 1):
            stream.graph.add_edge(0, 1)
        stream.watch(triangle())
        with pytest.raises(KeyError, match="already present"):
            stream.apply([("+", 1, 0)])

    def test_delete_then_insert_same_edge_is_valid(self):
        stream = fresh_session()
        if not stream.graph.has_edge(0, 1):
            stream.graph.add_edge(0, 1)
        h = stream.watch(triangle())
        stream.apply([("-", 0, 1), ("+", 0, 1)])
        assert stream.graph.has_edge(0, 1)
        assert stream.counts() == stream.expected_counts()


class TestDeltaExecutor:
    def test_reads_live_adjacency(self):
        """Nothing is cached: a mutation shows in the next count."""
        dyn = DynamicGraph(4, [(0, 1), (1, 2), (0, 2)])
        ex = DeltaExecutor(dyn)
        plan = delta_plan_for(triangle())
        assert ex.count_edge(plan, 0, 1) == 1
        dyn.add_edge(0, 3)
        dyn.add_edge(1, 3)
        assert ex.count_edge(plan, 0, 1) == 2


class TestRandomChurn:
    def test_sequence_is_valid_and_deterministic(self):
        from repro.streaming import random_churn

        base = erdos_renyi(15, 0.3, seed=2)
        a = random_churn(base, 50, seed=9)
        b = random_churn(base, 50, seed=9)
        assert a == b
        assert len(a) == 50
        # valid for sequential application (both ops exercised)
        stream = StreamSession(DynamicGraph.from_graph(base))
        stream.watch(triangle())
        stream.apply(a)
        assert stream.counts() == stream.expected_counts()
        assert any(up.is_insert for up in a)
        assert any(not up.is_insert for up in a)

    def test_accepts_dynamic_graph_and_rejects_tiny(self):
        from repro.streaming import random_churn

        dyn = DynamicGraph(5, [(0, 1)])
        churn = random_churn(dyn, 10, seed=1)
        assert len(churn) == 10
        with pytest.raises(ValueError, match="two vertices"):
            random_churn(DynamicGraph(1), 3, seed=1)

    def test_insert_bias_extremes(self):
        from repro.streaming import random_churn

        base = erdos_renyi(12, 0.3, seed=4)
        all_inserts = random_churn(base, 20, seed=5, insert_bias=1.0)
        assert all(up.is_insert for up in all_inserts)
        all_deletes = random_churn(base, base.n_edges, seed=5, insert_bias=0.0)
        assert not any(up.is_insert for up in all_deletes)

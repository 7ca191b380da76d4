"""The vectorised frontier backend and its bulk primitives.

Four layers of coverage:

* bulk primitives (`gather_csr_rows`, `sorted_edge_keys`,
  `bulk_contains_sorted`) pinned against their scalar counterparts;
* a property test that :func:`repro.core.vectorised.restriction_mask`
  agrees with the scalar GraphPi restriction predicate ``id(g) > id(s)``
  on random frontiers;
* cross-backend equivalence: every registered backend — vectorised
  included — over the fig2/catalog pattern set on generated *and*
  dataset graphs;
* the fallback rules: plain IEP-suffix plans run on the frontier (bulk
  IEP), labeled/induced IEP-suffix contexts bounce to the interpreter,
  and labeled and induced IEP-free plans are first-class (anti-edge and
  label masks run on the frontier);
* auxiliary-graph pruning: forced-on/off/auto engines agree with brute
  force across the catalog, the scratch-CSR primitives match their
  per-row reference intersections, and the identity-keyed edge-key
  cache keeps equal graphs apart and releases dropped ones.
"""

import numpy as np
import pytest

from repro.baselines.bruteforce import bruteforce_count, bruteforce_induced_count
from repro.core.api import count_pattern, match_pattern, match_query
from repro.core.backend import (
    BackendUnsupportedError,
    MatchContext,
    available_backends,
    backend_names,
    capabilities_of,
    get_backend,
    select_backend,
)
from repro.core.config import Configuration, compile_plan
from repro.core.induced import induced_count
from repro.core.query import MatchQuery
from repro.core.restrictions import generate_restriction_sets
from repro.core.schedule import generate_schedules
from repro.core.session import MatchSession
from repro.core.vectorised import FrontierEngine, restriction_mask
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi
from repro.graph.intersection import (
    bulk_contains_sorted,
    contains,
    gather_csr_rows,
    sorted_edge_keys,
)
from repro.pattern.catalog import clique, house, pentagon, rectangle, triangle

#: the fig2/equivalence pattern set every backend must agree on.
FIG2_PATTERNS = [triangle(), rectangle(), house(), pentagon(), clique(5)]


@pytest.fixture(scope="module")
def dataset_graph():
    """A small real-shaped dataset proxy (power-law, unlike er_small)."""
    return load_dataset("wiki-vote", scale=0.12, seed=7)


def make_plan(pattern, iep_k=0, **facts):
    s = generate_schedules(pattern)[0]
    rs = generate_restriction_sets(pattern)[0]
    return compile_plan(Configuration(pattern, s, rs), iep_k=iep_k, **facts)


# ---------------------------------------------------------------------------
# bulk primitives
# ---------------------------------------------------------------------------
class TestBulkPrimitives:
    def test_gather_csr_rows_matches_neighbors(self, er_small):
        rng = np.random.default_rng(11)
        vertices = rng.integers(0, er_small.n_vertices, size=60)
        owner, values = gather_csr_rows(
            er_small.indptr, er_small.indices, vertices
        )
        expected_values = np.concatenate(
            [er_small.neighbors(int(v)) for v in vertices]
        )
        expected_owner = np.concatenate(
            [np.full(er_small.degree(int(v)), i) for i, v in enumerate(vertices)]
        )
        assert np.array_equal(values, expected_values)
        assert np.array_equal(owner, expected_owner)

    def test_gather_csr_rows_empty_inputs(self, er_small):
        owner, values = gather_csr_rows(
            er_small.indptr, er_small.indices, np.empty(0, dtype=np.int64)
        )
        assert len(owner) == 0 and len(values) == 0

    def test_sorted_edge_keys_are_strictly_increasing(self, er_small):
        keys = sorted_edge_keys(er_small.indptr, er_small.indices)
        assert len(keys) == len(er_small.indices)
        assert np.all(np.diff(keys) > 0)

    def test_bulk_contains_matches_scalar_contains(self, er_small):
        keys = sorted_edge_keys(er_small.indptr, er_small.indices)
        n = er_small.n_vertices
        rng = np.random.default_rng(13)
        u = rng.integers(0, n, size=500)
        v = rng.integers(0, n, size=500)
        got = bulk_contains_sorted(keys, u * n + v)
        expected = np.array(
            [contains(keys, int(a) * n + int(b)) for a, b in zip(u, v)]
        )
        assert np.array_equal(got, expected)
        # and the keys encode exactly the edge relation
        assert all(
            bool(g) == er_small.has_edge(int(a), int(b))
            for g, a, b in zip(got, u, v)
        )

    def test_bulk_contains_empty_haystack(self):
        assert not bulk_contains_sorted(
            np.empty(0, dtype=np.int64), np.array([1, 2])
        ).any()


# ---------------------------------------------------------------------------
# restriction masks: vectorised == scalar predicate (property test)
# ---------------------------------------------------------------------------
class TestRestrictionMaskProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_mask_matches_scalar_predicates(self, seed):
        """On random frontiers the vectorised mask equals the scalar
        GraphPi predicate: ``lower`` columns j mean id(new) > id(bound_j),
        ``upper`` columns id(bound_j) > id(new) — the exact semantics of
        ``repro.core.restrictions``'s ``(g, s)`` pairs."""
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(1, 5))
        n_rows = int(rng.integers(1, 40))
        n_pairs = int(rng.integers(1, 200))
        front = rng.integers(0, 50, size=(n_rows, depth))
        owner = rng.integers(0, n_rows, size=n_pairs)
        cand = rng.integers(0, 50, size=n_pairs)
        cols = list(range(depth))
        rng.shuffle(cols)
        cut = int(rng.integers(0, depth + 1))
        lower, upper = cols[:cut], cols[cut:]

        got = restriction_mask(front, owner, cand, lower, upper)
        for i in range(n_pairs):
            row = front[owner[i]]
            ok = all(cand[i] > row[j] for j in lower) and all(
                row[j] > cand[i] for j in upper
            )
            assert bool(got[i]) == ok, (i, row, cand[i], lower, upper)

    def test_mask_no_restrictions_is_all_true(self):
        front = np.arange(6).reshape(3, 2)
        mask = restriction_mask(front, np.array([0, 1, 2]), np.array([9, 9, 9]), (), ())
        assert mask.all()


# ---------------------------------------------------------------------------
# cross-backend equivalence (generated + dataset graphs)
# ---------------------------------------------------------------------------
class TestCrossBackendEquivalence:
    def test_vectorised_is_registered(self):
        assert "vectorised" in backend_names()
        caps = available_backends()["vectorised"].capabilities
        assert caps.supports_mode("plain")
        assert caps.supports_mode("labeled")
        assert caps.supports_mode("induced")
        assert caps.supports_mode("directed")
        assert caps.iep_modes == {"plain", "directed"}
        assert caps.enumeration

    @pytest.mark.parametrize("pattern", FIG2_PATTERNS, ids=lambda p: p.name)
    def test_generated_graph_all_backends_agree(self, er_small, pattern):
        expected = bruteforce_count(er_small, pattern)
        for name in backend_names():
            spec = (
                get_backend("parallel", n_workers=2) if name == "parallel" else name
            )
            got = count_pattern(er_small, pattern, use_iep=False, backend=spec)
            assert got == expected, (name, pattern.name)

    @pytest.mark.parametrize("pattern", FIG2_PATTERNS, ids=lambda p: p.name)
    def test_dataset_graph_vectorised_matches_interpreter(
        self, dataset_graph, pattern
    ):
        expected = count_pattern(
            dataset_graph, pattern, use_iep=False, backend="interpreter"
        )
        got = count_pattern(
            dataset_graph, pattern, use_iep=False, backend="vectorised"
        )
        assert got == expected, pattern.name

    def test_vectorised_actually_executes(self, er_small):
        """The capability-aware default plans IEP-free, so the preference
        is honoured — the result reports vectorised, not a fallback."""
        result = match_query(er_small, MatchQuery(house(), backend="vectorised"))
        assert result.backend == "vectorised"
        assert result.count == bruteforce_count(er_small, house())

    def test_all_preference_channels_reach_vectorised(self, er_small):
        """Call-level, query-level and session-default preferences all
        fold into planning — none silently falls back to the
        interpreter on an IEP plan it never asked for."""
        expected = bruteforce_count(er_small, house())
        by_call = MatchSession(er_small).count(
            MatchQuery(house()), backend="vectorised"
        )
        by_query = MatchSession(er_small).count(
            MatchQuery(house(), backend="vectorised")
        )
        by_session = MatchSession(er_small, backend="vectorised").count(
            MatchQuery(house())
        )
        for result in (by_call, by_query, by_session):
            assert result.backend == "vectorised"
            assert result.count == expected

    def test_root_chunking_preserves_counts(self, er_small):
        plan = make_plan(house())
        whole = FrontierEngine(er_small, plan).count()
        chunked = FrontierEngine(er_small, plan, root_chunk=7).count()
        assert whole == chunked == bruteforce_count(er_small, house())

    def test_enumeration_matches_interpreter(self, er_small):
        base = list(match_pattern(er_small, rectangle(), backend="interpreter"))
        vect = list(match_pattern(er_small, rectangle(), backend="vectorised"))
        assert base == vect  # same embeddings, same DFS order

    def test_enumeration_respects_limit(self, er_small):
        embs = list(match_pattern(er_small, triangle(), limit=5, backend="vectorised"))
        assert len(embs) == 5


# ---------------------------------------------------------------------------
# fallback rules
# ---------------------------------------------------------------------------
class TestFallbacks:
    def test_iep_plan_runs_vectorised(self, er_small):
        session = MatchSession(er_small)
        query = MatchQuery(house(), use_iep=True, backend="vectorised")
        assert session.plan_for(query).plan.iep_k > 0
        result = session.count(query)
        assert result.backend == "vectorised"
        assert result.count == bruteforce_count(er_small, house())
        ctx = MatchContext(graph=er_small, plan=make_plan(pentagon(), iep_k=1))
        assert get_backend("vectorised").supports(ctx)
        assert select_backend(ctx, "vectorised").name == "vectorised"
        assert select_backend(ctx, None).name == "vectorised"

    def test_iep_context_not_supported(self, er_small):
        # Bulk IEP has no label masks: a labeled context carrying an
        # IEP-suffix plan still bounces to the interpreter.
        from repro.graph.labeled import assign_random_labels

        ctx = MatchContext(
            graph=assign_random_labels(er_small, 2, seed=7),
            plan=make_plan(pentagon(), iep_k=1, labels=(0,) * 5),
            mode="labeled",
        )
        backend = get_backend("vectorised")
        assert not backend.supports(ctx)
        with pytest.raises(BackendUnsupportedError):
            backend.count(ctx)
        assert select_backend(ctx, "vectorised").name == "interpreter"

    def test_induced_counts_match_bruteforce(self, er_small):
        expected = bruteforce_induced_count(er_small, rectangle())
        assert induced_count(er_small, rectangle(), backend="vectorised") == expected

    def test_induced_context_runs_on_the_frontier(self, er_small):
        # The anti-edge masks made induced contexts first-class: no
        # interpreter fallback for an IEP-free plan.
        ctx = MatchContext(
            graph=er_small, plan=make_plan(rectangle(), induced=True), mode="induced"
        )
        backend = get_backend("vectorised")
        assert backend.supports(ctx)
        assert select_backend(ctx, "vectorised").name == "vectorised"
        assert backend.count(ctx) == bruteforce_induced_count(er_small, rectangle())

    def test_frontier_engine_rejects_iep_plans(self, er_small):
        # ... of labeled plans; plain IEP plans are counted.
        from repro.graph.labeled import assign_random_labels

        labeled = make_plan(pentagon(), iep_k=1, labels=(0,) * 5)
        with pytest.raises(ValueError, match="IEP suffixes of unlabeled plans"):
            FrontierEngine(assign_random_labels(er_small, 2, seed=7), labeled)
        plan = make_plan(pentagon(), iep_k=1)
        assert FrontierEngine(er_small, plan).count() == bruteforce_count(
            er_small, pentagon()
        )

    def test_pattern_larger_than_graph_counts_zero(self):
        tiny = erdos_renyi(4, 0.9, seed=1)
        assert FrontierEngine(tiny, make_plan(clique(5))).count() == 0

    def test_capability_gated_iep_resolution(self):
        # vectorised runs IEP plans now, so its preference keeps them.
        q = MatchQuery(house(), backend="vectorised")
        assert q.resolved_use_iep is True
        assert MatchQuery(house()).resolved_use_iep is True
        assert MatchQuery(house(), backend="compiled").resolved_use_iep is True
        # explicit use_iep always wins over the capability default
        assert MatchQuery(house(), use_iep=True, backend="vectorised").resolved_use_iep

    def test_capabilities_of_specs(self):
        assert capabilities_of(None) is None
        assert capabilities_of("no-such-backend") is None
        inst = get_backend("vectorised")
        assert capabilities_of(inst) is inst.capabilities
        assert capabilities_of("vectorised").supports_iep("directed")


# ---------------------------------------------------------------------------
# auxiliary-graph pruning
# ---------------------------------------------------------------------------
class TestAuxiliaryPruning:
    """Forced-on, forced-off and cost-gated engines must agree exactly.

    ``aux=True`` skips the cost gate *and* the minimum-frontier-size
    guard, so the scratch-CSR paths (group dedup and pool chaining) are
    genuinely exercised even on the small fixtures here.
    """

    AUX_PATTERNS = [triangle(), rectangle(), house(), pentagon(), clique(4), clique(5)]

    @pytest.mark.parametrize("pattern", AUX_PATTERNS, ids=lambda p: p.name)
    def test_aux_modes_agree_generated_graph(self, er_small, pattern):
        expected = bruteforce_count(er_small, pattern)
        plan = make_plan(pattern)
        for aux in (False, True, "auto"):
            got = FrontierEngine(er_small, plan, aux=aux).count()
            assert got == expected, (aux, pattern.name)

    @pytest.mark.parametrize("pattern", AUX_PATTERNS, ids=lambda p: p.name)
    def test_aux_modes_agree_dataset_graph(self, dataset_graph, pattern):
        plan = make_plan(pattern)
        baseline = FrontierEngine(dataset_graph, plan, aux=False).count()
        for aux in (True, "auto"):
            got = FrontierEngine(dataset_graph, plan, aux=aux).count()
            assert got == baseline, (aux, pattern.name)

    def test_aux_respects_root_chunking(self, er_small):
        plan = make_plan(clique(4))
        expected = bruteforce_count(er_small, clique(4))
        assert FrontierEngine(er_small, plan, aux=True, root_chunk=5).count() == expected

    def test_aux_enumeration_order_unchanged(self, er_small):
        plan = make_plan(house())
        direct = list(FrontierEngine(er_small, plan, aux=False).enumerate_embeddings())
        pooled = list(FrontierEngine(er_small, plan, aux=True).enumerate_embeddings())
        assert direct == pooled  # same embeddings, same DFS order

    def test_aux_backend_option_plumbs_through(self, er_small):
        expected = bruteforce_count(er_small, clique(4))
        for aux in (False, True, "auto"):
            backend = get_backend("vectorised", aux=aux)
            got = count_pattern(er_small, clique(4), backend=backend)
            assert got == expected, aux

    def test_invalid_aux_rejected(self, er_small):
        with pytest.raises(ValueError, match="aux"):
            FrontierEngine(er_small, make_plan(triangle()), aux="always")


# ---------------------------------------------------------------------------
# labeled and induced frontier execution
# ---------------------------------------------------------------------------
class TestLabeledInducedFrontier:
    @pytest.fixture(scope="class")
    def labeled_graph(self, er_small):
        from repro.graph.labeled import assign_random_labels

        return assign_random_labels(er_small, 2, seed=7)

    @pytest.mark.parametrize(
        "pattern", [triangle(), rectangle(), house()], ids=lambda p: p.name
    )
    def test_labeled_counts_match_interpreter(self, labeled_graph, pattern):
        from repro.pattern.labeled import LabeledPattern

        lp = LabeledPattern(
            pattern, tuple(i % 2 for i in range(pattern.n_vertices))
        )
        query = MatchQuery(lp)
        expected = int(match_query(labeled_graph, query, backend="interpreter"))
        for aux in (False, True, "auto"):
            got = int(
                match_query(labeled_graph, query, backend=get_backend("vectorised", aux=aux))
            )
            assert got == expected, (aux, pattern.name)

    def test_labeled_query_executes_on_vectorised(self, labeled_graph):
        from repro.pattern.labeled import LabeledPattern

        lp = LabeledPattern(triangle(), (0, 0, 1))
        result = match_query(labeled_graph, MatchQuery(lp), backend="vectorised")
        assert result.backend == "vectorised"

    @pytest.mark.parametrize(
        "pattern", [rectangle(), house()], ids=lambda p: p.name
    )
    def test_induced_counts_match_bruteforce(self, er_small, pattern):
        expected = bruteforce_induced_count(er_small, pattern)
        for aux in (False, True, "auto"):
            got = induced_count(
                er_small, pattern, backend=get_backend("vectorised", aux=aux)
            )
            assert got == expected, (aux, pattern.name)

    def test_labeled_engine_requires_labeled_graph(self, er_small):
        plan = make_plan(triangle(), labels=(0, 0, 1))
        with pytest.raises(TypeError, match="LabeledGraph"):
            MatchContext(graph=er_small, plan=plan, mode="labeled")

    def test_labeled_induced_combination_rejected(self):
        with pytest.raises(ValueError, match="not supported"):
            make_plan(triangle(), labels=(0, 0, 1), induced=True)


# ---------------------------------------------------------------------------
# enumeration limit semantics at chunk boundaries
# ---------------------------------------------------------------------------
class TestEnumerationLimits:
    def all_embeddings(self, er_small, plan):
        return list(FrontierEngine(er_small, plan).enumerate_embeddings())

    def test_limit_zero_yields_nothing(self, er_small):
        engine = FrontierEngine(er_small, make_plan(triangle()))
        assert list(engine.enumerate_embeddings(limit=0)) == []

    def test_limit_exactly_on_chunk_edge(self, er_small):
        """Pin root_chunk low so the limit lands exactly where the first
        chunk's yields end — no extra chunk may leak into the output."""
        plan = make_plan(triangle())
        full = self.all_embeddings(er_small, plan)
        engine = FrontierEngine(er_small, plan, root_chunk=4)
        # yields up to each 4-root chunk edge; pick an interior edge
        # (restrictions can leave early root chunks empty)
        edges = [
            engine.count_roots(np.arange(k))
            for k in range(4, er_small.n_vertices, 4)
        ]
        boundary = next(c for c in edges if 0 < c < len(full))
        got = list(engine.enumerate_embeddings(limit=boundary))
        assert got == full[:boundary]

    def test_limit_spanning_chunks(self, er_small):
        plan = make_plan(triangle())
        full = self.all_embeddings(er_small, plan)
        want = min(len(full), 17)
        got = list(
            FrontierEngine(er_small, plan, root_chunk=3).enumerate_embeddings(
                limit=want
            )
        )
        assert got == full[:want]

    def test_limit_beyond_total_is_everything(self, er_small):
        plan = make_plan(rectangle())
        full = self.all_embeddings(er_small, plan)
        got = list(
            FrontierEngine(er_small, plan).enumerate_embeddings(
                limit=len(full) + 1000
            )
        )
        assert got == full

    def test_mask_empty_lower_only(self):
        front = np.array([[5, 2], [1, 8]])
        owner = np.array([0, 0, 1])
        cand = np.array([3, 9, 4])
        got = restriction_mask(front, owner, cand, (), (0, 1))
        assert got.tolist() == [
            bool(3 < 5 and 3 < 2),
            bool(9 < 5 and 9 < 2),
            bool(4 < 1 and 4 < 8),
        ]

    def test_mask_empty_upper_only(self):
        front = np.array([[5, 2], [1, 8]])
        owner = np.array([0, 1, 1])
        cand = np.array([6, 0, 9])
        got = restriction_mask(front, owner, cand, (0,), ())
        assert got.tolist() == [True, False, True]


# ---------------------------------------------------------------------------
# the identity-keyed edge-key cache
# ---------------------------------------------------------------------------
class TestEdgeKeyCache:
    def test_cache_hits_for_live_graph(self):
        from repro.core.vectorised import graph_csrs

        g = erdos_renyi(30, 0.2, seed=9)
        first = graph_csrs(g)
        assert graph_csrs(g) is first
        # an undirected graph has one CSR, read as both directions
        assert first[0] is first[1]

    def test_dropped_graph_is_released(self):
        import gc
        import weakref

        from repro.core.vectorised import graph_csrs
        from repro.graph.stats import _MEMOS

        g = erdos_renyi(30, 0.2, seed=10)
        graph_csrs(g)
        ref, key = weakref.ref(g), id(g)
        assert key in _MEMOS
        del g
        gc.collect()
        # the cache held no strong reference: the graph and its O(E)
        # key arrays are gone, not pinned like lru_cache(8)
        assert ref() is None
        assert key not in _MEMOS

    def test_equal_graphs_get_their_own_entries(self, monkeypatch):
        """Lookups go by identity: equal graphs (which share a hash)
        never reach ``__eq__``, and each keeps its own entry."""
        from repro.core.reduction import undirected_view
        from repro.core.vectorised import graph_csrs
        from repro.graph.csr import Graph
        from repro.graph.digraph import DiGraph, random_digraph
        from repro.graph.stats import GraphStats

        g = erdos_renyi(30, 0.2, seed=11)
        d = random_digraph(30, 0.2, seed=11)
        g2 = Graph(g.indptr.copy(), g.indices.copy())
        d2 = DiGraph(
            d.out_indptr.copy(), d.out_indices.copy(), d.in_indptr.copy(), d.in_indices.copy()
        )
        assert g2 == g and hash(g2) == hash(g) and d2 == d and hash(d2) == hash(d)

        def refuse(self, other):
            raise AssertionError("a per-graph cache compared graphs by value")

        monkeypatch.setattr(Graph, "__eq__", refuse)
        monkeypatch.setattr(DiGraph, "__eq__", refuse)
        for a, b in ((g, g2), (d, d2)):
            first, second = graph_csrs(a), graph_csrs(b)
            assert first is not second
            assert graph_csrs(a) is first and graph_csrs(b) is second
            np.testing.assert_array_equal(first[1].keys, second[1].keys)
        assert undirected_view(d) is not undirected_view(d2)
        assert undirected_view(d) is undirected_view(d)
        stats = GraphStats.of(g)
        stats.remember(g)
        assert GraphStats.of(g) is stats and GraphStats.of(g2) is not stats

"""The directed fast paths: frontier engine, generated kernels, reduction.

Three layers under test, all new in the directed-first-class change:

* :class:`~repro.core.vectorised.FrontierEngine` on a digraph — per-depth
  candidate pools drawn from the digraph's out-/in-CSR rows (antiparallel
  dependencies intersect both), restriction windows unchanged;
* directed generated kernels (`generate_source` reading a directed
  plan's out-/in-refs) plus the backend capability flags and the
  session's kernel memoisation that route directed plans onto them;
* the XMiner skeleton-sharing reduction for batched directed queries
  (:func:`repro.core.reduction.reduce_directed_batch` and
  :meth:`MatchSession.count_many`).
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro.baselines.bruteforce import bruteforce_directed_count
from repro.core.backend import MatchContext, get_backend
from repro.core.codegen import compile_directed_function, generate_source
from repro.core.config import Configuration, compile_plan
from repro.core.directed import DirectedMatcher
from repro.core.query import MatchQuery
from repro.core.reduction import (
    MAX_DIGRAPH_VERTICES,
    MAX_SKELETON_EDGES,
    reduce_directed_batch,
    skeleton_key,
    undirected_view,
)
from repro.core.session import MatchSession
from repro.core.vectorised import FrontierEngine, frontier_engine_for
from repro.graph.digraph import DiGraph, price_citation_graph, random_digraph
from repro.pattern.directed import (
    DiPattern,
    bi_fan,
    directed_clique,
    directed_cycle,
    directed_path,
    out_star,
    transitive_triangle,
)

DIPATTERNS = [
    directed_cycle(3),
    transitive_triangle(),
    directed_path(4),
    directed_cycle(4),
    out_star(3),
    bi_fan(),
    directed_clique(3),
    DiPattern(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], name="chorded-dicycle"),
]


@pytest.fixture(scope="module")
def dig():
    return random_digraph(40, 0.25, seed=404)


@pytest.fixture(scope="module")
def citation():
    return price_citation_graph(120, out_degree=4, seed=7)


def compile_directed_plan(pattern: DiPattern, schedule, restrictions):
    config = Configuration(pattern.skeleton(), tuple(schedule), frozenset(restrictions))
    return compile_plan(config, dipattern=pattern)


def directed_ctx(graph, pattern, **plan_kwargs):
    plan = DirectedMatcher(pattern).plan(graph, **plan_kwargs).plan
    return MatchContext(graph=graph, plan=plan, mode="directed")


# ---------------------------------------------------------------------------
# FrontierEngine on a digraph
# ---------------------------------------------------------------------------
class TestDirectedFrontierEngine:
    @pytest.mark.parametrize("pattern", DIPATTERNS, ids=lambda p: p.name)
    def test_count_equals_bruteforce(self, dig, pattern):
        ctx = directed_ctx(dig, pattern)
        engine = FrontierEngine(dig, ctx.plan)
        assert engine.count() == bruteforce_directed_count(dig, pattern)

    @pytest.mark.parametrize("pattern", DIPATTERNS[:4], ids=lambda p: p.name)
    def test_count_on_citation_graph(self, citation, pattern):
        ctx = directed_ctx(citation, pattern)
        engine = FrontierEngine(citation, ctx.plan)
        assert engine.count() == DirectedMatcher(pattern).count(
            citation, backend="interpreter"
        )

    def test_small_root_chunk_is_equivalent(self, dig):
        p = transitive_triangle()
        ctx = directed_ctx(dig, p)
        full = FrontierEngine(dig, ctx.plan).count()
        chunked = FrontierEngine(dig, ctx.plan, root_chunk=7).count()
        assert chunked == full

    def test_count_roots_partial_sums_compose(self, dig):
        p = directed_cycle(3)
        ctx = directed_ctx(dig, p)
        engine = FrontierEngine(dig, ctx.plan)
        roots = list(range(dig.n_vertices))
        split = engine.count_roots(roots[:13]) + engine.count_roots(roots[13:])
        assert split == engine.count()

    def test_enumeration_matches_interpreter(self, dig):
        p = bi_fan()
        m = DirectedMatcher(p)
        ctx = directed_ctx(dig, p)
        engine = FrontierEngine(dig, ctx.plan)
        got = set(engine.enumerate_embeddings())
        want = {tuple(e) for e in m.match(dig, backend="interpreter")}
        assert got == want

    def test_enumeration_limit(self, dig):
        ctx = directed_ctx(dig, directed_path(3))
        engine = FrontierEngine(dig, ctx.plan)
        assert len(list(engine.enumerate_embeddings(limit=5))) == 5

    @pytest.mark.parametrize(
        "pattern", [bi_fan(), directed_path(4), out_star(3)], ids=lambda p: p.name
    )
    def test_counts_iep_plan_exactly(self, dig, pattern):
        # bifan realises k = 1 (the plain last loop), dpath-4 and the
        # out-star k >= 2 (the bulk suffix, the star with a divisor).
        plan = DirectedMatcher(pattern).plan(dig, use_iep=True).plan
        assert plan.iep_k >= 1
        engine = FrontierEngine(dig, plan)
        assert engine.count() == bruteforce_directed_count(dig, pattern)

    def test_rejects_disconnected_prefix(self, dig):
        # Schedule bi-fan as (0, 1, 2, 3): vertices 0 and 1 are the two
        # sources, mutually non-adjacent, so depth 1 has no dependency.
        plan = compile_directed_plan(bi_fan(), (0, 1, 2, 3), frozenset())
        assert not plan.refs[1]
        with pytest.raises(ValueError, match="connected"):
            FrontierEngine(dig, plan)

    def test_factory_dispatches_on_mode(self, dig):
        ctx = directed_ctx(dig, transitive_triangle())
        engine = frontier_engine_for(ctx)
        assert isinstance(engine, FrontierEngine)


# ---------------------------------------------------------------------------
# directed generated kernels + backend routing
# ---------------------------------------------------------------------------
class TestDirectedKernels:
    @pytest.mark.parametrize("pattern", DIPATTERNS, ids=lambda p: p.name)
    def test_kernel_equals_interpreter(self, dig, pattern):
        ctx = directed_ctx(dig, pattern)
        counter = compile_directed_function(ctx.plan)
        assert counter.mode == "directed"
        assert counter.function(dig) == DirectedMatcher(pattern).count(
            dig, backend="interpreter"
        )

    def test_source_reads_both_csrs_for_antiparallel(self):
        # dcycle-2 (u<->v) needs the candidate in out(u) AND in(u).
        plan = compile_directed_plan(
            DiPattern(2, [(0, 1), (1, 0)], name="dcycle-2"), (0, 1), frozenset()
        )
        src = generate_source(plan)
        assert "out_indptr" in src and "in_indptr" in src
        assert "c1 = intersect_many([ob0, ib0])" in src

    def test_source_rejects_iep(self, dig):
        rep = DirectedMatcher(bi_fan()).plan(dig, use_iep=True)
        if rep.plan.iep_k == 0:
            pytest.skip("no IEP suffix realised")
        with pytest.raises(ValueError):
            generate_source(rep.plan)

    def test_compiled_backend_counts_directed(self, dig):
        p = transitive_triangle()
        ctx = directed_ctx(dig, p)
        assert get_backend("compiled").count(ctx) == bruteforce_directed_count(dig, p)

    def test_session_memoises_directed_kernel(self, dig):
        session = MatchSession(dig)
        query = MatchQuery(out_star(3))
        first = session.count(query, backend="compiled")
        second = session.count(query, backend="compiled")
        assert first.count == second.count
        assert first.backend == second.backend == "compiled"
        assert second.cache_hit
        # with no preference the query plans with IEP, on the frontier
        default = session.count(query)
        assert default.backend == "vectorised"
        assert default.count == first.count


# ---------------------------------------------------------------------------
# skeleton-sharing reduction
# ---------------------------------------------------------------------------
class TestReduction:
    def triangle_batch(self):
        # four orientations of the same labeled triangle skeleton
        return [
            transitive_triangle(),
            directed_cycle(3),
            DiPattern(3, [(1, 0), (2, 1), (2, 0)], name="ffl-flipped"),
            DiPattern(3, [(0, 1), (0, 2), (1, 2), (2, 1)], name="tri-antiparallel"),
        ]

    def test_batch_counts_match_per_pattern(self, dig):
        batch = self.triangle_batch()
        counts, report = reduce_directed_batch(dig, batch)
        for p, c in zip(batch, counts):
            assert c == DirectedMatcher(p).count(dig), p.name
        assert report.n_patterns == len(batch)
        assert report.n_core_embeddings > 0
        assert "reduction" in report.describe()

    def test_rejects_empty_and_mixed_batches(self, dig):
        with pytest.raises(ValueError, match="at least one"):
            reduce_directed_batch(dig, [])
        with pytest.raises(ValueError, match="share one skeleton"):
            reduce_directed_batch(dig, [transitive_triangle(), bi_fan()])

    def test_skeleton_key_is_exact(self):
        assert skeleton_key(transitive_triangle()) == skeleton_key(directed_cycle(3))
        assert skeleton_key(transitive_triangle()) != skeleton_key(bi_fan())

    def test_undirected_view_is_cached(self, dig):
        assert undirected_view(dig) is undirected_view(dig)

    def test_count_many_groups_shared_skeletons(self, dig):
        session = MatchSession(dig)
        batch = self.triangle_batch()
        queries = [MatchQuery(p) for p in batch] + [MatchQuery(bi_fan())]
        results = session.count_many(queries)
        assert len(results) == len(queries)
        for q, r in zip(queries, results):
            assert r.count == DirectedMatcher(q.pattern).count(dig)
        # the triangle group went through the shared core...
        assert {r.backend for r in results[:4]} == {"reduction"}
        # ...the singleton bifan through a regular backend.
        assert results[4].backend != "reduction"

    def test_count_many_reduce_false(self, dig):
        session = MatchSession(dig)
        queries = [MatchQuery(p) for p in self.triangle_batch()]
        results = session.count_many(queries, reduce=False)
        assert all(r.backend != "reduction" for r in results)
        assert [r.count for r in results] == [
            DirectedMatcher(q.pattern).count(dig) for q in queries
        ]

    def test_count_many_auto_respects_backend_preference(self, dig):
        # an explicit backend preference disables auto-reduction (the
        # user asked for *that* backend, not the shared core).
        session = MatchSession(dig)
        queries = [MatchQuery(p) for p in self.triangle_batch()]
        results = session.count_many(queries, backend="interpreter")
        assert all(r.backend == "interpreter" for r in results)

    def test_count_many_rejects_bad_reduce(self, dig):
        session = MatchSession(dig)
        with pytest.raises(ValueError, match="reduce"):
            session.count_many([MatchQuery(directed_cycle(3))], reduce="sometimes")

    def test_count_many_rejects_disconnected_batch(self, dig):
        # two orientations of one disconnected skeleton (two components)
        batch = [
            DiPattern(4, [(0, 1), (2, 3)], name="split-a"),
            DiPattern(4, [(1, 0), (2, 3)], name="split-b"),
        ]
        with pytest.raises(ValueError, match="requires a connected pattern"):
            MatchSession(dig).count_many(batch, reduce=True)

    def test_count_many_reports_skeleton_plan_cache_hit(self, monkeypatch):
        # a fresh digraph, so no other test has planned its skeleton or
        # built its undirected view
        graph = random_digraph(30, 0.3, seed=17)
        view_build_s = 0.05
        to_undirected = DiGraph.to_undirected

        def slow_to_undirected(self):
            time.sleep(view_build_s)
            return to_undirected(self)

        monkeypatch.setattr(DiGraph, "to_undirected", slow_to_undirected)
        session = MatchSession(graph)
        queries = [MatchQuery(p) for p in self.triangle_batch()]
        first = session.count_many(queries)
        second = session.count_many(queries)
        assert {r.backend for r in first + second} == {"reduction"}
        assert not any(r.cache_hit for r in first)
        assert all(r.seconds_plan > 0 for r in first)
        # the first batch builds the view, and its results account for it
        assert sum(r.seconds_plan + r.seconds_execute for r in first) >= view_build_s
        assert all(r.cache_hit for r in second)
        assert all(r.seconds_plan == 0.0 for r in second)
        assert [r.count for r in first] == [r.count for r in second]

    def test_rejects_skeleton_over_edge_bound(self, dig):
        edges = list(itertools.combinations(range(9), 2))[: MAX_SKELETON_EDGES + 1]
        batch = [
            DiPattern(9, edges, name="dense-fwd"),
            DiPattern(9, [(b, a) for a, b in edges], name="dense-rev"),
        ]
        with pytest.raises(ValueError, match=f"at most {MAX_SKELETON_EDGES}"):
            reduce_directed_batch(dig, batch)

    def test_count_many_counts_over_bound_skeletons_per_pattern(self, dig, monkeypatch):
        # A real 32-edge skeleton takes seconds to plan; shrinking the
        # bound below the triangle's 3 edges exercises the same path.
        monkeypatch.setattr("repro.core.reduction.MAX_SKELETON_EDGES", 2)
        batch = self.triangle_batch()
        with pytest.raises(ValueError, match="at most 2"):
            reduce_directed_batch(dig, batch)
        results = MatchSession(dig).count_many(batch, reduce=True)
        assert all(r.backend != "reduction" for r in results)
        assert [r.count for r in results] == [DirectedMatcher(p).count(dig) for p in batch]

    def test_digraph_over_table_bound_counts_per_pattern(self):
        graph = random_digraph(MAX_DIGRAPH_VERTICES + 1, 0.002, seed=23)
        batch = self.triangle_batch()
        with pytest.raises(ValueError, match=f"at most {MAX_DIGRAPH_VERTICES}"):
            reduce_directed_batch(graph, batch)
        results = MatchSession(graph).count_many(batch, reduce=True)
        assert all(r.backend != "reduction" for r in results)
        assert [r.count for r in results] == [DirectedMatcher(p).count(graph) for p in batch]
        assert any(r.count for r in results)


# ---------------------------------------------------------------------------
# reduction vs independent counts vs the interpreter
# ---------------------------------------------------------------------------
def orientations(n, edges, *choices, prefix):
    """DiPatterns over one skeleton: per edge ``(a, b)``, choice ``"f"``
    keeps ``a->b``, ``"r"`` flips it and ``"b"`` keeps both arcs."""
    patterns = []
    for i, choice in enumerate(choices):
        arcs = []
        for (a, b), c in zip(edges, choice):
            if c in "fb":
                arcs.append((a, b))
            if c in "rb":
                arcs.append((b, a))
        patterns.append(DiPattern(n, arcs, name=f"{prefix}-{i}"))
    return patterns


C4_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3)]
K4_EDGES = list(itertools.combinations(range(4), 2))
HOUSE_EDGES = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (1, 4)]

DIFFERENTIAL_BATCHES = {
    # the three 4-cycle orientations of the fig8-warm batch
    "c4": [
        DiPattern(4, [(0, 1), (1, 2), (2, 3), (3, 0)], name="c4-cycle"),
        DiPattern(4, [(0, 1), (2, 1), (2, 3), (0, 3)], name="c4-fan"),
        DiPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)], name="c4-paths"),
    ],
    # |Aut(K4)| = 24 over 6 edges, with antiparallel pairs
    "k4": orientations(4, K4_EDGES, "ffffff", "bfffff", "frfrfr", "bbffrr", "bbbbbb", prefix="k4"),
    "house": orientations(5, HOUSE_EDGES, "ffffff", "rfrfbf", "fbrrff", "bffffb", prefix="house"),
}


class TestReductionDifferential:
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_BATCHES))
    def test_reduced_equals_independent_and_interpreter(self, dig, name):
        batch = DIFFERENTIAL_BATCHES[name]
        assert len({skeleton_key(p) for p in batch}) == 1
        session = MatchSession(dig)
        queries = [MatchQuery(p) for p in batch]
        reduced = session.count_many(queries, reduce=True)
        independent = session.count_many(queries, reduce=False)
        interpreter = [DirectedMatcher(p).count(dig, backend="interpreter") for p in batch]
        assert all(r.backend == "reduction" for r in reduced)
        assert all(r.backend != "reduction" for r in independent)
        assert [r.count for r in reduced] == interpreter
        assert [r.count for r in independent] == interpreter
        assert any(interpreter), "batch matched nothing: differential is vacuous"

    def test_direct_entry_point_on_citation_graph(self, citation):
        batch = DIFFERENTIAL_BATCHES["c4"]
        counts, report = reduce_directed_batch(citation, batch)
        assert counts == [DirectedMatcher(p).count(citation, backend="interpreter") for p in batch]
        assert report.n_automorphisms == 8
        assert 0 < report.n_codes <= 3 ** len(C4_EDGES)


# ---------------------------------------------------------------------------
# DiGraph equality and hashing
# ---------------------------------------------------------------------------
class TestDiGraphIdentity:
    def test_equal_digraphs_compare_equal(self):
        a = random_digraph(20, 0.2, seed=5)
        b = random_digraph(20, 0.2, seed=5)
        c = random_digraph(20, 0.2, seed=6)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != object()

    def test_digraph_usable_as_dict_key(self):
        a = random_digraph(10, 0.3, seed=1)
        assert {a: "x"}[a] == "x"

"""The directed fast paths: frontier engine, generated kernels, reduction.

Three layers under test, all new in the directed-first-class change:

* :class:`~repro.core.vectorised.DirectedFrontierEngine` — per-depth
  candidate pools drawn from the digraph's out-/in-CSR rows (antiparallel
  dependencies intersect both), restriction windows unchanged;
* directed generated kernels (`generate_directed_source` /
  `compile_directed_function`) plus the backend capability flags and the
  session's kernel memoisation that route directed plans onto them;
* the XMiner skeleton-sharing reduction for batched directed queries
  (:func:`repro.core.reduction.reduce_directed_batch` and
  :meth:`MatchSession.count_many`).
"""

from __future__ import annotations

import pytest

from repro.baselines.bruteforce import bruteforce_directed_count
from repro.core.backend import MatchContext, get_backend
from repro.core.codegen import compile_directed_function, generate_directed_source
from repro.core.directed import DirectedMatcher, compile_directed_plan
from repro.core.query import MatchQuery
from repro.core.reduction import reduce_directed_batch, skeleton_key, undirected_view
from repro.core.session import MatchSession
from repro.core.vectorised import DirectedFrontierEngine, frontier_engine_for
from repro.graph.digraph import price_citation_graph, random_digraph
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


def directed_ctx(graph, pattern, **plan_kwargs):
    plan = DirectedMatcher(pattern).plan(graph, **plan_kwargs).plan
    return MatchContext(graph=graph, plan=plan, mode="directed")


# ---------------------------------------------------------------------------
# DirectedFrontierEngine
# ---------------------------------------------------------------------------
class TestDirectedFrontierEngine:
    @pytest.mark.parametrize("pattern", DIPATTERNS, ids=lambda p: p.name)
    def test_count_equals_bruteforce(self, dig, pattern):
        ctx = directed_ctx(dig, pattern)
        engine = DirectedFrontierEngine(dig, ctx.plan)
        assert engine.count() == bruteforce_directed_count(dig, pattern)

    @pytest.mark.parametrize("pattern", DIPATTERNS[:4], ids=lambda p: p.name)
    def test_count_on_citation_graph(self, citation, pattern):
        ctx = directed_ctx(citation, pattern)
        engine = DirectedFrontierEngine(citation, ctx.plan)
        assert engine.count() == DirectedMatcher(pattern).count(
            citation, backend="interpreter"
        )

    def test_small_root_chunk_is_equivalent(self, dig):
        p = transitive_triangle()
        ctx = directed_ctx(dig, p)
        full = DirectedFrontierEngine(dig, ctx.plan).count()
        chunked = DirectedFrontierEngine(dig, ctx.plan, root_chunk=7).count()
        assert chunked == full

    def test_count_roots_partial_sums_compose(self, dig):
        p = directed_cycle(3)
        ctx = directed_ctx(dig, p)
        engine = DirectedFrontierEngine(dig, ctx.plan)
        roots = list(range(dig.n_vertices))
        split = engine.count_roots(roots[:13]) + engine.count_roots(roots[13:])
        assert split == engine.count()

    def test_enumeration_matches_interpreter(self, dig):
        p = bi_fan()
        m = DirectedMatcher(p)
        ctx = directed_ctx(dig, p)
        engine = DirectedFrontierEngine(dig, ctx.plan)
        got = set(engine.enumerate_embeddings())
        want = {tuple(e) for e in m.match(dig, backend="interpreter")}
        assert got == want

    def test_enumeration_limit(self, dig):
        ctx = directed_ctx(dig, directed_path(3))
        engine = DirectedFrontierEngine(dig, ctx.plan)
        assert len(list(engine.enumerate_embeddings(limit=5))) == 5

    def test_rejects_iep_plan(self, dig):
        rep = DirectedMatcher(bi_fan()).plan(dig, use_iep=True)
        if rep.plan.iep_k == 0:
            pytest.skip("no IEP suffix realised")
        with pytest.raises(ValueError, match="iep"):
            DirectedFrontierEngine(dig, rep.plan)

    def test_rejects_disconnected_prefix(self, dig):
        # Schedule bi-fan as (0, 1, 2, 3): vertices 0 and 1 are the two
        # sources, mutually non-adjacent, so depth 1 has no dependency.
        plan = compile_directed_plan(bi_fan(), (0, 1, 2, 3), frozenset())
        assert not plan.out_deps[1] and not plan.in_deps[1]
        with pytest.raises(ValueError, match="connected"):
            DirectedFrontierEngine(dig, plan)

    def test_factory_dispatches_on_mode(self, dig):
        ctx = directed_ctx(dig, transitive_triangle())
        engine = frontier_engine_for(ctx)
        assert isinstance(engine, DirectedFrontierEngine)


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
        src = generate_directed_source(plan)
        assert "out_indptr" in src and "in_indptr" in src

    def test_source_rejects_iep(self, dig):
        rep = DirectedMatcher(bi_fan()).plan(dig, use_iep=True)
        if rep.plan.iep_k == 0:
            pytest.skip("no IEP suffix realised")
        with pytest.raises(ValueError):
            generate_directed_source(rep.plan)

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
        # the same cached plan with no preference runs on the frontier
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


# ---------------------------------------------------------------------------
# DiGraph identity plumbing (weak-keyed caches need eq/hash)
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

"""The unified MatchQuery/MatchSession facade and its plan cache."""

import dataclasses

import pytest

from repro.baselines.bruteforce import (
    bruteforce_count,
    bruteforce_directed_count,
    bruteforce_induced_count,
)
from repro.core.api import PatternMatcher, count_pattern, match_pattern, match_query
from repro.core.directed import DirectedMatcher, count_directed
from repro.core.induced import induced_count
from repro.core.labeled import LabeledMatcher, labeled_bruteforce_count, labeled_count
from repro.core.query import MatchQuery, MatchResult, as_query
from repro.core.session import (
    MatchSession,
    clear_sessions,
    get_session,
    stats_signature,
)
from repro.graph.digraph import DiGraph, random_digraph
from repro.graph.generators import erdos_renyi
from repro.graph.labeled import assign_random_labels
from repro.pattern.catalog import clique, house, rectangle, triangle
from repro.pattern.directed import directed_cycle, transitive_triangle
from repro.pattern.labeled import LabeledPattern


@pytest.fixture
def lgraph():
    return assign_random_labels(erdos_renyi(35, 0.25, seed=5), 2, seed=7)


@pytest.fixture
def digraph():
    return random_digraph(40, 0.12, seed=11)


class TestMatchQuery:
    def test_mode_inferred_from_pattern_type(self):
        assert MatchQuery(house()).mode == "plain"
        assert MatchQuery(LabeledPattern(triangle(), (0, 0, 1))).mode == "labeled"
        assert MatchQuery(directed_cycle(3)).mode == "directed"

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            MatchQuery(house(), mode="directed")

    def test_unknown_mode_and_semantics_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            MatchQuery(house(), mode="quantum")
        with pytest.raises(ValueError, match="unknown semantics"):
            MatchQuery(house(), semantics="telepathic")

    def test_induced_semantics_only_plain(self):
        with pytest.raises(ValueError, match="only defined for plain"):
            MatchQuery(directed_cycle(3), semantics="induced")

    def test_induced_semantics_rejects_iep(self):
        with pytest.raises(ValueError, match="IEP"):
            MatchQuery(house(), semantics="induced", use_iep=True)

    def test_disconnected_pattern_rejected(self):
        from repro.pattern.pattern import Pattern

        with pytest.raises(ValueError, match="connected"):
            MatchQuery(Pattern(4, [(0, 1), (2, 3)]))

    def test_use_iep_defaults(self):
        assert MatchQuery(house()).resolved_use_iep is True
        assert MatchQuery(house(), semantics="induced").resolved_use_iep is False
        assert MatchQuery(directed_cycle(3)).resolved_use_iep is False
        assert MatchQuery(house(), use_iep=False).resolved_use_iep is False

    def test_fingerprint_excludes_backend(self):
        q = MatchQuery(house())
        assert q.with_backend("interpreter").fingerprint == q.fingerprint

    def test_fingerprint_covers_plan_knobs(self):
        q = MatchQuery(house())
        assert q.fingerprint != MatchQuery(house(), use_iep=False).fingerprint
        assert q.fingerprint != MatchQuery(triangle()).fingerprint
        assert (
            q.fingerprint
            != MatchQuery(house(), max_restriction_sets=8).fingerprint
        )
        assert q.fingerprint != MatchQuery(house(), semantics="induced").fingerprint

    def test_for_enumeration_disables_iep(self):
        q = MatchQuery(house())
        assert q.for_enumeration().resolved_use_iep is False
        q2 = MatchQuery(house(), use_iep=False)
        assert q2.for_enumeration() is q2

    def test_as_query_wraps_patterns_and_rejects_mixed_options(self):
        assert as_query(triangle()).mode == "plain"
        q = MatchQuery(triangle())
        assert as_query(q) is q
        with pytest.raises(TypeError, match="ready MatchQuery"):
            as_query(q, use_iep=False)


class TestMatchResult:
    def test_int_like(self, er_small):
        res = MatchSession(er_small).count(MatchQuery(triangle()))
        assert isinstance(res, MatchResult)
        expected = bruteforce_count(er_small, triangle())
        assert res == expected
        assert int(res) == expected
        assert [0] * 3 == [0] * MatchResult(
            count=3, backend="interpreter", mode="plain", semantics="edge",
            cache_hit=False, seconds_plan=0.0, seconds_execute=0.0,
            provenance="", fingerprint=(),
        )  # __index__

    def test_numeric_comparisons(self, er_small):
        res = MatchSession(er_small).count(MatchQuery(triangle()))
        n = res.count
        assert res == float(n)
        assert res < n + 1 and res <= n and res > n - 1 and res >= n
        assert sorted([n + 1, res, n - 1]) == [n - 1, res, n + 1]
        with pytest.raises(TypeError):
            res < "not-a-number"

    def test_records_provenance_and_backend(self, er_small):
        res = MatchSession(er_small).count(MatchQuery(house()))
        # no preference: the frontier engine runs the IEP plan itself
        assert res.backend == "vectorised"
        assert res.count == bruteforce_count(er_small, house())
        assert res.mode == "plain" and res.semantics == "edge"
        assert "schedule" in res.provenance
        assert res.seconds_total >= res.seconds_execute >= 0


class TestPlanCache:
    def test_second_count_is_cache_hit_and_skips_planning(self, er_small):
        """Satellite regression: the old PatternMatcher re-ranked and
        re-codegenned on every count(); the session must not."""
        session = MatchSession(er_small)
        q = MatchQuery(house())
        r1 = session.count(q)
        assert not r1.cache_hit and r1.seconds_plan > 0
        # Any further planning would go through _plan — make it explode.
        session._plan = lambda *a, **k: pytest.fail("planned twice")
        r2 = session.count(MatchQuery(house()))  # equal query, fresh object
        assert r2.cache_hit
        assert r2.seconds_plan == 0.0
        assert r2.count == r1.count
        assert session.cache_info() == (1, 1, 1)

    def test_patternmatcher_shim_reuses_session_plans(self, er_small):
        m = PatternMatcher(rectangle())
        first = m.count(er_small)
        info_before = get_session(er_small).cache_info()
        assert m.count(er_small) == first
        info_after = get_session(er_small).cache_info()
        assert info_after.hits == info_before.hits + 1
        assert info_after.misses == info_before.misses

    def test_distinct_fingerprints_get_distinct_entries(self, er_small):
        session = MatchSession(er_small)
        session.count(MatchQuery(triangle()))
        session.count(MatchQuery(triangle(), use_iep=False))
        assert session.cache_info().size == 2

    def test_plan_cache_is_lru_bounded(self, er_small):
        session = MatchSession(er_small, max_plans=2)
        for p in (triangle(), rectangle(), house()):
            session.count(MatchQuery(p, use_iep=False))
        assert session.cache_info().size == 2
        # triangle (least recently used) was evicted -> re-plans
        assert not session.count(MatchQuery(triangle(), use_iep=False)).cache_hit
        with pytest.raises(ValueError, match="capacity"):
            MatchSession(er_small, max_plans=0)

    def test_fingerprint_memoised_on_query(self):
        q = MatchQuery(house())
        assert q.fingerprint is q.fingerprint

    def test_clear_cache(self, er_small):
        session = MatchSession(er_small)
        session.count(MatchQuery(triangle()))
        session.clear_cache()
        assert session.cache_info() == (0, 0, 0)
        assert not session.count(MatchQuery(triangle())).cache_hit

    def test_signature_differs_across_graphs(self, er_small, er_medium):
        assert MatchSession(er_small).signature != MatchSession(er_medium).signature

    def test_signature_tracks_labels(self, er_small):
        lg1 = assign_random_labels(er_small, 2, seed=1)
        lg2 = assign_random_labels(er_small, 2, seed=2)
        s1 = stats_signature(lg1, MatchSession(lg1).stats)
        s2 = stats_signature(lg2, MatchSession(lg2).stats)
        assert s1 != s2

    def test_get_session_identity_and_lru_bound(self):
        from repro.core import session as session_mod

        clear_sessions()
        g = erdos_renyi(12, 0.4, seed=9)
        first = get_session(g)
        assert get_session(g) is first
        assert len(session_mod._SESSIONS) == 1
        # Flood the registry past its LRU capacity; the oldest session
        # (g's) must be evicted and a later lookup gets a fresh one.
        others = [erdos_renyi(10, 0.4, seed=s) for s in range(
            session_mod.session_cache_size()
        )]
        for other in others:
            get_session(other)
        assert len(session_mod._SESSIONS) == session_mod.session_cache_size()
        assert get_session(g) is not first
        clear_sessions()
        assert len(session_mod._SESSIONS) == 0


class TestOldApiEqualsNewApi:
    """Satellite: the historical entry points are thin wrappers — results
    must be pinned equal to the session layer (and the oracle)."""

    def test_count_parity(self, er_small, all_small_patterns):
        session = MatchSession(er_small)
        for pattern in all_small_patterns:
            expected = bruteforce_count(er_small, pattern)
            new = session.count(MatchQuery(pattern))
            assert new == expected, pattern.name
            assert count_pattern(er_small, pattern) == new.count
            assert PatternMatcher(pattern).count(er_small) == new.count

    def test_match_parity(self, er_small):
        session = MatchSession(er_small)
        new = {frozenset(e) for e in session.enumerate(MatchQuery(house()))}
        old = {frozenset(e) for e in match_pattern(er_small, house())}
        assert new == old

    def test_enumerate_limit(self, er_small):
        session = MatchSession(er_small)
        embs = list(session.enumerate(MatchQuery(house()), limit=3))
        assert len(embs) == 3

    def test_match_query_oneshot(self, er_small):
        res = match_query(er_small, MatchQuery(triangle()))
        assert res == bruteforce_count(er_small, triangle())
        assert match_query(er_small, triangle(), backend="interpreter").backend == (
            "interpreter"
        )


class TestCrossModeParity:
    """Satellite: labeled/induced/directed counts through MatchSession
    equal the module-level functions and the brute-force oracles."""

    def test_induced(self, er_small):
        for pattern in [house(), rectangle()]:
            expected = bruteforce_induced_count(er_small, pattern)
            q = MatchQuery(pattern, semantics="induced")
            assert MatchSession(er_small).count(q) == expected
            assert induced_count(er_small, pattern, method="engine") == expected

    def test_labeled(self, lgraph):
        lp = LabeledPattern(triangle(), (0, 0, 1))
        expected = labeled_bruteforce_count(lgraph, lp)
        assert MatchSession(lgraph).count(MatchQuery(lp)) == expected
        assert labeled_count(lgraph, lp) == expected
        assert LabeledMatcher(lp).count(lgraph) == expected

    def test_directed(self, digraph):
        for dp in [directed_cycle(3), transitive_triangle()]:
            expected = bruteforce_directed_count(digraph, dp)
            assert MatchSession(digraph).count(MatchQuery(dp)) == expected
            assert count_directed(digraph, dp) == expected
            assert DirectedMatcher(dp).count(digraph) == expected

    def test_plain_queries_on_labeled_graph_use_structure(self, lgraph):
        expected = bruteforce_count(lgraph.graph, triangle())
        assert MatchSession(lgraph).count(MatchQuery(triangle())) == expected

    def test_mode_graph_mismatch_rejected(self, er_small, digraph):
        with pytest.raises(TypeError, match="labeled queries"):
            MatchSession(er_small).count(MatchQuery(LabeledPattern(triangle(), (0, 0, 0))))
        with pytest.raises(TypeError, match="directed queries"):
            MatchSession(er_small).count(MatchQuery(directed_cycle(3)))
        with pytest.raises(TypeError, match="plain queries"):
            MatchSession(digraph).count(MatchQuery(triangle()))


class TestUniformBackendSelection:
    """Acceptance: all three non-plain modes accept backend= through the
    unified facade, with counts identical across backends."""

    BACKENDS = ("interpreter", "preslice", "compiled", "parallel")

    def test_induced_backends_agree(self, er_small):
        session = MatchSession(er_small)
        q = MatchQuery(rectangle(), semantics="induced")
        base = session.count(q, backend="interpreter")
        for backend in self.BACKENDS:
            res = session.count(q, backend=backend)
            assert res == base, backend

    def test_labeled_backends_agree(self, lgraph):
        session = MatchSession(lgraph)
        q = MatchQuery(LabeledPattern(triangle(), (0, 0, 1)))
        base = session.count(q, backend="interpreter")
        for backend in self.BACKENDS:
            assert session.count(q, backend=backend) == base, backend

    def test_directed_backends_agree(self, digraph):
        session = MatchSession(digraph)
        q = MatchQuery(transitive_triangle())
        base = session.count(q, backend="interpreter")
        for backend in self.BACKENDS:
            assert session.count(q, backend=backend) == base, backend

    def test_backend_precedence_call_over_query_over_session(self, er_small):
        session = MatchSession(er_small, backend="preslice")
        q = MatchQuery(triangle())
        assert session.count(q).backend == "preslice"
        assert session.count(q.with_backend("interpreter")).backend == "interpreter"
        assert (
            session.count(q.with_backend("interpreter"), backend="compiled").backend
            == "compiled"
        )

    def test_use_codegen_false_defaults_to_interpreter(self, er_small):
        session = MatchSession(er_small)
        res = session.count(MatchQuery(triangle(), use_codegen=False))
        assert res.backend == "interpreter"
        assert res == bruteforce_count(er_small, triangle())

    def test_execution_time_kernel_memoised_on_entry(self, er_small, monkeypatch):
        # A codegen-less entry executed with backend="compiled" compiles
        # the kernel once and stores it back on the cached entry.
        session = MatchSession(er_small)
        q = MatchQuery(triangle(), use_codegen=False)
        expected = session.count(q, backend="compiled")
        entry = session.plan_for(q)
        assert entry.generated is not None

        from repro.core import session as session_mod

        monkeypatch.setattr(
            session_mod, "compile_plan_function",
            lambda plan: pytest.fail("kernel compiled twice"),
        )
        assert session.count(q, backend="compiled") == expected


class TestCountMany:
    def test_batch_counts_and_cache_sharing(self, er_small):
        session = MatchSession(er_small)
        queries = [MatchQuery(p) for p in (triangle(), rectangle(), triangle())]
        results = session.count_many(queries)
        assert [r.count for r in results] == [
            bruteforce_count(er_small, triangle()),
            bruteforce_count(er_small, rectangle()),
            bruteforce_count(er_small, triangle()),
        ]
        # third query repeats the first fingerprint -> cache hit
        assert [r.cache_hit for r in results] == [False, False, True]

    def test_mixed_semantics_batch(self, er_small):
        session = MatchSession(er_small)
        results = session.count_many(
            [MatchQuery(house()), MatchQuery(house(), semantics="induced")]
        )
        assert results[0].count == bruteforce_count(er_small, house())
        assert results[1].count == bruteforce_induced_count(er_small, house())


class TestPlanReportCompat:
    def test_plan_for_exposes_plain_report(self, er_small):
        session = MatchSession(er_small)
        entry = session.plan_for(MatchQuery(house(), use_iep=False))
        assert entry.report.pattern == house()
        assert entry.plan is entry.report.plan
        assert entry.seconds_plan > 0

    def test_matcher_plan_goes_through_session_cache(self, er_small):
        m = PatternMatcher(clique(4))
        rep1 = m.plan(er_small, use_iep=True)
        rep2 = m.plan(er_small, use_iep=True)
        assert rep1 is rep2  # same cached PlanEntry.report object

    def test_replaced_query_dataclass(self, er_small):
        # MatchQuery supports dataclasses.replace round-trips (frozen).
        q = MatchQuery(triangle())
        q2 = dataclasses.replace(q, use_iep=False)
        assert q2.resolved_use_iep is False
        session = MatchSession(er_small)
        assert session.count(q) == session.count(q2)

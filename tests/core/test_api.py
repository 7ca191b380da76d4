"""The public one-shot helpers and the plan surfaces they sit on."""

import pytest

from repro.baselines.bruteforce import bruteforce_count, bruteforce_enumerate
from repro.core.api import count_pattern, match_pattern
from repro.core.backend import MatchContext, select_backend
from repro.core.query import MatchQuery
from repro.core.session import get_session, plan_plain
from repro.graph.stats import GraphStats
from repro.pattern.catalog import clique, cycle_6_tri, house, triangle
from repro.pattern.pattern import Pattern


def _report(graph, pattern, **knobs):
    query = MatchQuery(pattern, **{"use_iep": False, **knobs})
    return get_session(graph).plan_for(query, kernel=query.use_codegen).report


class TestPlan:
    def test_report_contents(self, er_small):
        rep = _report(er_small, house())
        assert rep.pattern == house()
        assert len(rep.restriction_sets) >= 1
        assert rep.n_schedules >= 1
        assert rep.ranking[0] is rep.chosen
        assert rep.chosen.predicted_cost <= rep.ranking[-1].predicted_cost
        assert rep.generated is not None
        assert rep.seconds_total >= 0
        assert "configurations" in rep.describe()

    def test_plan_with_precomputed_stats(self, er_small):
        stats = GraphStats.of(er_small)
        rep = plan_plain(triangle(), stats)
        assert rep.stats is stats

    def test_use_iep_selects_iep_plan(self, er_small):
        rep = _report(er_small, cycle_6_tri(), use_iep=True)
        assert rep.plan.iep_k > 0

    def test_codegen_toggle(self, er_small):
        stats = GraphStats.of(er_small)
        assert plan_plain(triangle(), stats, codegen=False).generated is None
        assert plan_plain(triangle(), stats, codegen=True).generated is not None


class TestCount:
    def test_matches_bruteforce(self, er_small, all_small_patterns):
        for pattern in all_small_patterns:
            expected = bruteforce_count(er_small, pattern)
            assert count_pattern(er_small, pattern) == expected, pattern.name
            assert count_pattern(er_small, pattern, use_iep=False) == expected

    def test_iep_and_plain_agree(self, er_small, small_pattern):
        assert count_pattern(er_small, small_pattern, use_iep=True) == count_pattern(
            er_small, small_pattern, use_iep=False
        )

    def test_count_with_cached_report(self, er_small):
        rep = _report(er_small, house(), use_iep=True)
        ctx = MatchContext(graph=er_small, plan=rep.plan, generated=rep.generated)
        assert select_backend(ctx).count(ctx) == count_pattern(er_small, house())

    def test_disconnected_pattern_rejected(self, er_small):
        with pytest.raises(ValueError):
            count_pattern(er_small, Pattern(4, [(0, 1), (2, 3)]))


class TestMatch:
    def test_embeddings_valid(self, er_small):
        pattern = house()
        for emb in match_pattern(er_small, pattern, limit=25):
            assert len(set(emb)) == pattern.n_vertices
            for u, v in pattern.edges:
                assert er_small.has_edge(emb[u], emb[v])

    def test_match_pattern_oneshot(self, er_small):
        embs = {frozenset(e) for e in match_pattern(er_small, triangle())}
        brute = {frozenset(e) for e in bruteforce_enumerate(er_small, triangle())}
        assert embs == brute

    def test_match_never_uses_iep(self, er_small):
        # An IEP plan cached by a count is not reused for enumeration.
        assert _report(er_small, cycle_6_tri(), use_iep=True).plan.iep_k > 0
        embs = list(match_pattern(er_small, cycle_6_tri(), limit=2))
        assert all(len(e) == 6 for e in embs)


class TestCaches:
    def test_max_restriction_sets(self, er_small):
        rep = _report(er_small, clique(4), max_restriction_sets=2)
        assert len(rep.restriction_sets) <= 2

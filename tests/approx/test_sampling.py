"""Neighbourhood-sampling estimator: unbiasedness, edge cases, failure modes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.approx.sampling import EstimateResult, NeighborhoodSampler, approximate_count
from repro.baselines.bruteforce import bruteforce_count
from repro.core.api import count_pattern
from repro.core.query import MatchQuery
from repro.core.session import get_session
from repro.graph.builder import graph_from_edges
from repro.graph.generators import complete_graph, erdos_renyi
from repro.pattern.catalog import clique, house, path, rectangle, triangle


@pytest.fixture(scope="module")
def g_er():
    return erdos_renyi(60, 0.2, seed=31)


class TestSampleOnce:
    def test_returns_zero_or_positive_weight(self, g_er):
        s = NeighborhoodSampler(g_er, triangle(), seed=1)
        vals = [s.sample_once() for _ in range(200)]
        assert all(v >= 0 for v in vals)
        assert any(v > 0 for v in vals)

    def test_pattern_larger_than_graph(self):
        g = complete_graph(3)
        s = NeighborhoodSampler(g, clique(4), seed=1)
        assert s.sample_once() == 0.0

    def test_weight_on_complete_graph_first_trial(self):
        """On K_n with the triangle pattern and restriction set
        {(1,0),(2,1)} every trial that survives the range slices yields
        the same weight structure; all trials are bounded by n·(n-1)·(n-2)."""
        g = complete_graph(8)
        s = NeighborhoodSampler(g, triangle(), seed=3)
        for _ in range(50):
            w = s.sample_once()
            assert w <= 8 * 7 * 6


class TestUnbiasedness:
    @pytest.mark.parametrize("pattern", [triangle(), path(3), rectangle()],
                             ids=lambda p: p.name)
    def test_mean_converges_to_truth(self, g_er, pattern):
        truth = bruteforce_count(g_er, pattern)
        assert truth > 0
        res = approximate_count(g_er, pattern, n_samples=60_000, seed=42)
        # 60k samples: require the truth within ~5 standard errors
        assert abs(res.estimate - truth) <= max(5 * res.std_error, 0.15 * truth)

    def test_exact_on_complete_graph_triangle(self):
        """On K_n every path in the restricted DFS tree succeeds, so the
        estimator has tiny variance there."""
        g = complete_graph(10)
        truth = count_pattern(g, triangle(), use_iep=False)
        res = approximate_count(g, triangle(), n_samples=4_000, seed=5)
        assert res.relative_error(truth) < 0.25

    def test_house_estimate(self, g_er):
        truth = count_pattern(g_er, house(), use_iep=False)
        res = approximate_count(g_er, house(), n_samples=80_000, seed=7)
        assert res.relative_error(truth) < 0.3


class TestEstimateResult:
    def test_ci_brackets_estimate(self, g_er):
        res = approximate_count(g_er, triangle(), n_samples=5_000, seed=11)
        assert res.ci_low <= res.estimate <= res.ci_high

    def test_ci_widens_with_confidence(self, g_er):
        s = NeighborhoodSampler(g_er, triangle(), seed=13)
        lo = s.estimate(2_000, confidence=0.5)
        s2 = NeighborhoodSampler(g_er, triangle(), seed=13)
        hi = s2.estimate(2_000, confidence=0.99)
        assert (hi.ci_high - hi.ci_low) >= (lo.ci_high - lo.ci_low)

    def test_relative_error_of_zero_truth(self):
        r = EstimateResult(estimate=0.0, std_error=0.0, n_samples=10, hits=0,
                           confidence=0.95)
        assert r.relative_error(0) == 0.0
        r2 = EstimateResult(estimate=5.0, std_error=1.0, n_samples=10, hits=2,
                            confidence=0.95)
        assert math.isinf(r2.relative_error(0))

    def test_bad_args(self, g_er):
        s = NeighborhoodSampler(g_er, triangle(), seed=1)
        with pytest.raises(ValueError):
            s.estimate(0)
        with pytest.raises(ValueError):
            s.estimate(10, confidence=1.5)


class TestRareEmbeddingFailure:
    """The paper's intro claim: sampling fails when embeddings are rare."""

    def test_zero_hits_on_embedding_free_graph(self):
        # a tree has no triangles
        edges = [(i, i + 1) for i in range(40)]
        g = graph_from_edges(edges)
        res = approximate_count(g, triangle(), n_samples=2_000, seed=17)
        assert res.hits == 0
        assert res.estimate == 0.0
        # indistinguishable from "few": CI is [0, 0] — no signal
        assert res.ci_high == 0.0

    def test_rare_pattern_high_variance(self):
        """Plant exactly one 4-clique in a sparse graph: the estimator's
        coefficient of variation must dwarf that of an abundant pattern."""
        rng_edges = [(i, i + 1) for i in range(200)]
        planted = [(300, 301), (300, 302), (300, 303), (301, 302), (301, 303), (302, 303)]
        bridge = [(200, 300)]
        g = graph_from_edges(rng_edges + planted + bridge)
        assert count_pattern(g, clique(4), use_iep=False) == 1

        s = NeighborhoodSampler(g, clique(4), seed=23)
        res = s.estimate(3_000)
        # nearly all trials miss
        assert res.hits < 0.05 * res.n_samples

    def test_determinism_with_seed(self, g_er):
        a = approximate_count(g_er, triangle(), n_samples=500, seed=99)
        b = approximate_count(g_er, triangle(), n_samples=500, seed=99)
        assert a.estimate == b.estimate


def _plan(graph, pattern, *, use_iep):
    query = MatchQuery(pattern, use_iep=use_iep, use_codegen=False)
    return get_session(graph).plan_for(query)


class TestPlanInteraction:
    def test_rejects_iep_plan(self, g_er):
        rep = _plan(g_er, rectangle(), use_iep=True)
        if rep.plan.iep_k == 0:
            pytest.skip("model did not choose IEP here")
        with pytest.raises(ValueError, match="iep_k=0"):
            NeighborhoodSampler(g_er, rectangle(), plan=rep.plan)

    def test_explicit_plan_used(self, g_er):
        rep = _plan(g_er, triangle(), use_iep=False)
        s = NeighborhoodSampler(g_er, triangle(), plan=rep.plan, seed=3)
        assert s.plan is rep.plan
        truth = bruteforce_count(g_er, triangle())
        res = s.estimate(40_000)
        assert abs(res.estimate - truth) <= max(5 * res.std_error, 0.15 * truth)

    def test_default_plan_reuses_session_cache(self):
        g = erdos_renyi(50, 0.2, seed=41)
        exact = count_pattern(g, house(), use_iep=False, use_codegen=False)
        before = get_session(g).cache_info()
        s = NeighborhoodSampler(g, house(), seed=5)
        after = get_session(g).cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses
        assert exact == bruteforce_count(g, house())
        assert s.plan is _plan(g, house(), use_iep=False).plan

"""Peregrine-style baseline: correctness and data-obliviousness."""

from __future__ import annotations

import pytest

from repro.baselines.bruteforce import bruteforce_count
from repro.baselines.peregrine import (
    PeregrineMatcher,
    constraint_profile,
    peregrine_count,
    peregrine_restriction_score,
    peregrine_schedule_score,
)
from repro.graph.generators import erdos_renyi, random_power_law
from repro.pattern.catalog import clique, house, pentagon, rectangle, triangle
from repro.pattern.pattern import Pattern

PATTERNS = [triangle(), rectangle(), house(), pentagon(), clique(4)]


class TestCorrectness:
    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name)
    def test_matches_bruteforce(self, pattern, er_small):
        assert peregrine_count(er_small, pattern) == bruteforce_count(
            er_small, pattern
        )

    def test_agrees_with_graphpi_on_powerlaw(self, powerlaw_small):
        from repro.core.api import count_pattern

        for pattern in (triangle(), house()):
            assert peregrine_count(powerlaw_small, pattern) == count_pattern(
                powerlaw_small, pattern
            )

    def test_enumeration_distinct(self, er_small):
        m = PeregrineMatcher(rectangle())
        embs = list(m.match(er_small))
        # distinct as subgraphs: same vertex set may host several C4s
        # (K4 contains 3), so compare mapped edge sets
        pat_edges = rectangle().edges
        subgraphs = {
            frozenset(frozenset((e[u], e[v])) for u, v in pat_edges) for e in embs
        }
        assert len(subgraphs) == len(embs)
        assert len(embs) == bruteforce_count(er_small, rectangle())

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            PeregrineMatcher(Pattern(4, [(0, 1), (2, 3)]))


class TestDataObliviousness:
    def test_plan_is_graph_independent(self):
        """The defining property: the same pattern gives the same plan
        regardless of the data graph (plan() takes no graph at all)."""
        m1 = PeregrineMatcher(house())
        m2 = PeregrineMatcher(house())
        assert m1.plan().config == m2.plan().config

    def test_plan_cached(self):
        m = PeregrineMatcher(house())
        assert m.plan() is m.plan()

    def test_graphpi_can_differ_per_graph(self):
        """GraphPi's choice may move with the data distribution; the
        Peregrine baseline's cannot.  (Not asserting GraphPi *must*
        differ — only that Peregrine never does.)"""
        from repro.core.session import plan_plain
        from repro.graph.stats import GraphStats

        dense = erdos_renyi(80, 0.3, seed=1)
        sparse = random_power_law(400, avg_degree=3.0, exponent=2.4, seed=2)
        peregrine_cfg = PeregrineMatcher(house()).plan().config

        def chosen(graph):
            return plan_plain(house(), GraphStats.of(graph), codegen=False).chosen

        cfg_dense = chosen(dense).config
        cfg_sparse = chosen(sparse).config
        # Peregrine's is one fixed configuration...
        assert peregrine_cfg == PeregrineMatcher(house()).plan().config
        # ...and it is a valid configuration of the same pattern
        assert cfg_dense.pattern == peregrine_cfg.pattern == cfg_sparse.pattern


class TestScores:
    def test_constraint_profile_shape(self):
        p = house()
        s = tuple(range(5))
        prof = constraint_profile(p, s)
        assert len(prof) == 5
        assert prof[0] == 0  # nothing bound before the first vertex

    def test_schedule_score_prefers_constrained_prefix(self):
        """For the house, a schedule starting at the triangle's apex
        binds more neighbours early than one starting at a base corner."""
        p = house()
        schedules = [tuple(range(5)), (3, 4, 0, 1, 2)]
        scores = [peregrine_schedule_score(p, s) for s in schedules]
        best = min(range(2), key=lambda i: scores[i])
        # the winner's constraint profile dominates at the first
        # position where they differ
        prof_best = constraint_profile(p, schedules[best])
        prof_other = constraint_profile(p, schedules[1 - best])
        for a, b in zip(prof_best, prof_other):
            if a != b:
                assert a > b
                break

    def test_restriction_score_prefers_shallow_checks(self):
        p = rectangle()
        s = (0, 1, 2, 3)
        shallow = frozenset({(0, 1), (0, 2), (1, 3)})
        deep = frozenset({(0, 3), (1, 3), (2, 3)})
        assert peregrine_restriction_score(p, s, shallow) < peregrine_restriction_score(
            p, s, deep
        )

    def test_deterministic_choice(self):
        a = PeregrineMatcher(pentagon()).plan().config
        b = PeregrineMatcher(pentagon()).plan().config
        assert a.schedule == b.schedule and a.restrictions == b.restrictions

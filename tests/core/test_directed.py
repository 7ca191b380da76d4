"""Directed matching: restrictions, schedules, engine, matcher."""

from __future__ import annotations

import pytest

from repro.baselines.bruteforce import bruteforce_directed_count
from repro.core.config import IN, OUT, Configuration, compile_plan
from repro.core.directed import (
    DirectedMatcher,
    count_directed,
    generate_directed_restriction_sets,
    generate_directed_schedules,
    match_directed,
)
from repro.core.engine import Engine
from repro.core.restrictions import surviving_permutations
from repro.graph.digraph import DiGraph, digraph_from_edges, price_citation_graph, random_digraph
from repro.graph.generators import erdos_renyi
from repro.graph.stats import triangle_count
from repro.pattern.catalog import house, triangle
from repro.pattern.directed import (
    DiPattern,
    bi_fan,
    directed_automorphisms,
    directed_clique,
    directed_cycle,
    directed_path,
    out_star,
    transitive_triangle,
)

DIPATTERNS = [
    directed_cycle(3),
    transitive_triangle(),
    directed_path(3),
    directed_cycle(4),
    out_star(3),
    bi_fan(),
    DiPattern(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], name="chorded-dicycle"),
]


def compile_directed_plan(pattern: DiPattern, schedule, restrictions, **kwargs):
    """The one plan type, lowered from a configuration on the skeleton."""
    config = Configuration(pattern.skeleton(), tuple(schedule), frozenset(restrictions))
    return compile_plan(config, dipattern=pattern, **kwargs)


@pytest.fixture(scope="module")
def dig_small():
    return random_digraph(35, 0.15, seed=77)


@pytest.fixture(scope="module")
def citation():
    return price_citation_graph(80, out_degree=3, seed=21)


# ---------------------------------------------------------------------------
# restriction generation on the directed group
# ---------------------------------------------------------------------------
class TestDirectedRestrictions:
    def test_asymmetric_pattern_needs_no_restrictions(self):
        sets = generate_directed_restriction_sets(transitive_triangle())
        assert sets == [frozenset()]

    def test_dicycle_sets_eliminate_rotations(self):
        p = directed_cycle(4)
        auts = directed_automorphisms(p)
        assert len(auts) == 4
        for rs in generate_directed_restriction_sets(p):
            assert len(surviving_permutations(auts, rs)) == 1

    def test_multiple_sets_generated_for_symmetric_patterns(self):
        assert len(generate_directed_restriction_sets(bi_fan())) > 1

    def test_directed_sets_can_be_smaller_than_undirected(self):
        """The directed group of the 4-cycle (rotations, order 4) is a
        proper subgroup of the skeleton's dihedral group (order 8), so
        breaking it needs fewer restrictions."""
        from repro.core.restrictions import generate_restriction_sets

        di = generate_directed_restriction_sets(directed_cycle(4))
        und = generate_restriction_sets(directed_cycle(4).skeleton())
        assert min(len(s) for s in di) <= min(len(s) for s in und)

    def test_max_sets_cap(self):
        sets = generate_directed_restriction_sets(directed_clique(4), max_sets=5)
        assert 1 <= len(sets) <= 5


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------
class TestDirectedSchedules:
    def test_connected_prefix_holds(self):
        p = directed_cycle(4)
        sk = p.skeleton()
        for s in generate_directed_schedules(p):
            for i in range(1, len(s)):
                assert any(sk.has_edge(s[i], s[j]) for j in range(i))

    def test_directed_dedup_keeps_more_than_undirected(self):
        """Dedup by the smaller directed group must keep at least as many
        schedule representatives as dedup by the full skeleton group."""
        from repro.core.schedule import generate_schedules

        p = directed_cycle(4)
        di = generate_directed_schedules(p)
        und = generate_schedules(p.skeleton(), dedup_automorphic=True)
        assert len(di) >= len(und)

    def test_no_dedup_returns_all_phase_survivors(self):
        p = directed_cycle(3)
        assert len(generate_directed_schedules(p, dedup_automorphic=False)) >= len(
            generate_directed_schedules(p)
        )


# ---------------------------------------------------------------------------
# plan compilation
# ---------------------------------------------------------------------------
class TestCompile:
    def test_out_in_deps(self):
        # pattern 0 -> 1, schedule (0, 1): candidate for 1 comes from
        # out-neighbours of the value bound to 0.
        p = directed_path(2)
        plan = compile_directed_plan(p, (0, 1), frozenset())
        assert plan.mode == "directed"
        assert plan.refs == ((), ((0, OUT),))
        assert plan.deps == ((), (0,))
        # reversed schedule: candidate for 0 comes from in-neighbours of 1's value
        plan = compile_directed_plan(p, (1, 0), frozenset())
        assert plan.refs == ((), ((0, IN),))

    def test_antiparallel_pair_in_both(self):
        p = DiPattern(2, [(0, 1), (1, 0)])
        plan = compile_directed_plan(p, (0, 1), frozenset())
        assert plan.refs[1] == ((0, OUT), (0, IN))
        assert plan.deps[1] == (0,)

    HOUSE_REFS = ((), ((0, OUT),), ((0, OUT),), ((1, OUT), (2, OUT)), ((0, OUT), (1, OUT)))

    @pytest.mark.parametrize(
        "mode,pattern,facts,refs,labels,anti",
        [
            # plain: one out-ref per pattern edge to an earlier depth
            (
                "plain", triangle(), {},
                ((), ((0, OUT),), ((0, OUT), (1, OUT))),
                (None,) * 3, ((),) * 3,
            ),
            # labeled house: the label of the vertex each depth binds
            (
                "labeled", house(), {"labels": (0, 1, 0, 1, 2)},
                HOUSE_REFS, (0, 1, 0, 1, 2), ((),) * 5,
            ),
            # induced house: the earlier depths the pattern does not touch
            (
                "induced", house(), {"induced": True},
                HOUSE_REFS, (None,) * 5, ((), (), (1,), (0,), (2, 3)),
            ),
        ],
        ids=["plain-triangle", "labeled-house", "induced-house"],
    )
    def test_lowered_ops(self, mode, pattern, facts, refs, labels, anti):
        config = Configuration(pattern, tuple(range(pattern.n_vertices)), frozenset())
        plan = compile_plan(config, **facts)
        assert plan.mode == mode
        assert plan.refs == refs
        assert plan.deps == tuple(tuple(j for j, _ in r) for r in refs)
        assert plan.labels == labels
        assert plan.anti == anti

    def test_restriction_bounds(self):
        p = directed_cycle(3)
        plan = compile_directed_plan(p, (0, 1, 2), frozenset({(0, 1)}))
        # id(0) > id(1): vertex 1 at depth 1 must be < value at depth 0
        assert plan.upper[1] == (0,)
        assert plan.lower == ((), (), ())

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            compile_directed_plan(directed_cycle(3), (0, 1, 1), frozenset())


# ---------------------------------------------------------------------------
# counting correctness
# ---------------------------------------------------------------------------
class TestCounting:
    @pytest.mark.parametrize("pattern", DIPATTERNS, ids=lambda p: p.name)
    def test_matches_bruteforce_on_random_digraph(self, pattern, dig_small):
        expected = bruteforce_directed_count(dig_small, pattern)
        assert count_directed(dig_small, pattern) == expected

    @pytest.mark.parametrize(
        "pattern",
        [directed_cycle(3), transitive_triangle(), directed_path(3)],
        ids=lambda p: p.name,
    )
    def test_matches_bruteforce_on_citation_graph(self, pattern, citation):
        expected = bruteforce_directed_count(citation, pattern)
        assert count_directed(citation, pattern) == expected

    def test_symmetrised_triangle_identity(self):
        """On DiGraph.from_undirected(g): each undirected triangle yields
        exactly 2 directed 3-cycles (the two rotation classes) and 6
        transitive triangles (all vertex orderings, |Aut| = 1)."""
        und = erdos_renyi(40, 0.25, seed=101)
        d = DiGraph.from_undirected(und)
        tri = triangle_count(und)
        assert count_directed(d, directed_cycle(3)) == 2 * tri
        assert count_directed(d, transitive_triangle()) == 6 * tri

    def test_dag_has_no_directed_cycles(self, citation):
        # Price graphs are DAGs: no directed cycle embeds.
        assert count_directed(citation, directed_cycle(3)) == 0
        assert count_directed(citation, directed_cycle(4)) == 0

    def test_all_configurations_agree(self, dig_small):
        """Every (schedule, restriction set) must produce the same count."""
        p = directed_cycle(4)
        expected = bruteforce_directed_count(dig_small, p)
        for s in generate_directed_schedules(p):
            for rs in generate_directed_restriction_sets(p, max_sets=64):
                plan = compile_directed_plan(p, s, rs)
                assert Engine(dig_small, plan).count() == expected

    def test_pattern_larger_than_graph(self):
        g = digraph_from_edges([(0, 1)])
        assert count_directed(g, directed_cycle(4)) == 0

    def test_empty_digraph(self):
        g = digraph_from_edges([(0, 1)], n_vertices=6)
        assert count_directed(g, directed_cycle(3)) == 0


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------
class TestEnumeration:
    def test_embeddings_are_valid_and_distinct(self, dig_small):
        p = directed_cycle(3)
        embs = list(match_directed(dig_small, p))
        for emb in embs:
            for u, v in p.arcs:
                assert dig_small.has_arc(emb[u], emb[v])
        assert len({frozenset(e) for e in embs}) == len(embs)
        assert len(embs) == bruteforce_directed_count(dig_small, p)

    def test_asymmetric_embeddings_distinct_as_maps(self, dig_small):
        p = transitive_triangle()
        embs = list(match_directed(dig_small, p))
        assert len(set(embs)) == len(embs)
        assert len(embs) == bruteforce_directed_count(dig_small, p)

    def test_limit(self, dig_small):
        embs = list(match_directed(dig_small, directed_path(3), limit=4))
        assert len(embs) == 4


# ---------------------------------------------------------------------------
# matcher plumbing
# ---------------------------------------------------------------------------
class TestMatcher:
    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            DirectedMatcher(DiPattern(4, [(0, 1), (2, 3)]))

    def test_plan_report_fields(self, dig_small):
        m = DirectedMatcher(directed_cycle(4))
        rep = m.plan(dig_small)
        assert rep.n_schedules >= 1
        assert len(rep.restriction_sets) >= 1
        assert rep.predicted_cost > 0
        assert rep.seconds_total >= 0
        assert sorted(rep.plan.schedule) == [0, 1, 2, 3]

    def test_count_with_precomputed_report(self, dig_small):
        m = DirectedMatcher(directed_cycle(3))
        rep = m.plan(dig_small)
        assert m.count(dig_small, report=rep) == count_directed(
            dig_small, directed_cycle(3)
        )

    def test_reverse_pattern_same_count(self, dig_small):
        """Reversing every pattern arc maps embeddings bijectively onto
        embeddings in the arc-reversed data graph; on a fixed data graph
        the counts generally differ, but for the arc-reversal-symmetric
        ER model the *distribution* coincides — here we simply pin the
        exact identity count_G(P) == count_G_rev(P_rev)."""
        p = DiPattern(3, [(0, 1), (0, 2)], name="out-wedge")
        rev_graph = digraph_from_edges(
            [(v, u) for u, v in dig_small.arcs()], n_vertices=dig_small.n_vertices
        )
        assert count_directed(dig_small, p) == count_directed(rev_graph, p.reverse())


class TestPrefixTasks:
    """Directed master/worker split: prefixes partition the count."""

    def test_prefix_sum_equals_total(self, dig_small):
        p = directed_cycle(3)
        m = DirectedMatcher(p)
        rep = m.plan(dig_small)
        engine = Engine(dig_small, rep.plan)
        total = engine.count()
        for depth in (1, 2):
            raw = sum(engine.count_prefix(pre) for pre in engine.iter_prefixes(depth))
            assert engine.finalize_count(raw) == total

    def test_prefixes_respect_restrictions(self, dig_small):
        p = directed_cycle(4)
        m = DirectedMatcher(p)
        rep = m.plan(dig_small)
        engine = Engine(dig_small, rep.plan)
        for pre in engine.iter_prefixes(2):
            assert len(pre) == 2
            assert len(set(pre)) == 2

    def test_bad_split_depth(self, dig_small):
        p = directed_cycle(3)
        rep = DirectedMatcher(p).plan(dig_small)
        engine = Engine(dig_small, rep.plan)
        with pytest.raises(ValueError):
            list(engine.iter_prefixes(0))
        with pytest.raises(ValueError):
            list(engine.iter_prefixes(3))

    def test_single_loop_plan_cannot_split(self, dig_small):
        # out-star-2 with iep_k=2 leaves one executed loop: splitting is
        # meaningless and must raise a clean ValueError (the old
        # max(2, n_loops) guard let split_depth=1 through to an
        # IndexError inside the prefix walk).
        plan = compile_directed_plan(out_star(2), (0, 1, 2), frozenset(), iep_k=2)
        assert plan.n_loops == 1
        engine = Engine(dig_small, plan)
        with pytest.raises(ValueError, match="at least two executed loops"):
            list(engine.iter_prefixes(1))


class TestDirectedIEP:
    """§IV-D counting carried over to the directed extension."""

    @pytest.mark.parametrize("pattern", DIPATTERNS, ids=lambda p: p.name)
    def test_iep_equals_plain(self, pattern, dig_small):
        m = DirectedMatcher(pattern)
        assert m.count(dig_small, use_iep=True) == m.count(dig_small, use_iep=False)

    def test_bifan_one_vertex_suffix_is_the_innermost_loop(self, dig_small):
        """bi-fan's connected-prefix schedules end on an adjacent pair, so
        their independent suffix is one vertex: the planner counts it as
        the innermost loop, and a hand-built k = 1 plan counts alike."""
        m = DirectedMatcher(bi_fan())
        rep = m.plan(dig_small, use_iep=True)
        assert rep.plan.iep_k == 0
        expected = bruteforce_directed_count(dig_small, bi_fan())
        assert m.count(dig_small, report=rep) == expected
        config = rep.plan.config
        suffix = compile_directed_plan(bi_fan(), config.schedule, config.restrictions, iep_k=1)
        assert suffix.iep_k == 1
        assert Engine(dig_small, suffix).count() == expected

    def test_iep_absorbs_suffix_for_dpath4(self, dig_small):
        """dpath-4's middle arc comes first, so its two ends are a
        non-adjacent suffix: IEP fires."""
        m = DirectedMatcher(directed_path(4))
        rep = m.plan(dig_small, use_iep=True)
        assert rep.plan.iep_k == 2
        assert m.count(dig_small, report=rep) == bruteforce_directed_count(
            dig_small, directed_path(4)
        )

    def test_iep_on_out_star(self, dig_small):
        """out-star leaves are pairwise non-adjacent (k = 3): the dropped
        inner restrictions must be compensated by the directed-group
        multiplicity."""
        m = DirectedMatcher(out_star(3))
        rep = m.plan(dig_small, use_iep=True)
        assert m.count(dig_small, report=rep) == bruteforce_directed_count(
            dig_small, out_star(3)
        )
        if rep.plan.iep_k >= 2 and rep.plan.dropped_restrictions:
            assert rep.plan.iep_overcount > 1

    def test_enumeration_rejects_iep_plan(self, dig_small):
        m = DirectedMatcher(directed_path(4))
        rep = m.plan(dig_small, use_iep=True)
        if rep.plan.iep_k == 0:
            pytest.skip("no IEP suffix realised")
        with pytest.raises(ValueError, match="iep_k=0"):
            Engine(dig_small, rep.plan).enumerate_embeddings()

    def test_match_rejects_iep_report(self, dig_small):
        # match(report=...) used to silently re-plan and drop the passed
        # report when it carried an IEP suffix; it must refuse instead,
        # matching DirectedEngine.enumerate_embeddings.
        m = DirectedMatcher(directed_path(4))
        rep = m.plan(dig_small, use_iep=True)
        if rep.plan.iep_k == 0:
            pytest.skip("no IEP suffix realised")
        with pytest.raises(ValueError, match="iep_k=0"):
            m.match(dig_small, report=rep)

    def test_match_honours_iep_free_report(self, dig_small):
        m = DirectedMatcher(transitive_triangle())
        rep = m.plan(dig_small)
        got = {tuple(e) for e in m.match(dig_small, report=rep)}
        want = {tuple(e) for e in m.match(dig_small)}
        assert got == want and len(got) == m.count(dig_small)

    def test_compile_rejects_bad_iep_k(self):
        p = directed_cycle(4)  # skeleton C4: max independent suffix = 2
        with pytest.raises(ValueError, match="independent suffix"):
            compile_directed_plan(p, (0, 1, 2, 3), frozenset(), iep_k=3)

    def test_prefix_tasks_with_iep(self, dig_small):
        m = DirectedMatcher(directed_path(4))
        rep = m.plan(dig_small, use_iep=True)
        if rep.plan.iep_k == 0 or rep.plan.n_loops < 2:
            pytest.skip("no splittable IEP plan here")
        engine = Engine(dig_small, rep.plan)
        raw = sum(engine.count_prefix(pre) for pre in engine.iter_prefixes(1))
        assert engine.finalize_count(raw) == bruteforce_directed_count(
            dig_small, directed_path(4)
        )

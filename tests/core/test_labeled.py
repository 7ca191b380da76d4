"""Labeled matching: the §II-A extension."""

import numpy as np
import pytest

from repro.core.labeled import (
    LabeledEngine,
    LabeledMatcher,
    labeled_bruteforce_count,
    labeled_count,
    labeled_restriction_sets,
)
from repro.graph.generators import erdos_renyi
from repro.graph.labeled import LabeledGraph, assign_random_labels
from repro.pattern.catalog import house, rectangle, star, triangle
from repro.pattern.labeled import (
    LabeledPattern,
    is_labeled_automorphism,
    labeled_automorphism_count,
    labeled_automorphisms,
)
from repro.pattern.pattern import Pattern


@pytest.fixture(scope="module")
def lgraph():
    return assign_random_labels(erdos_renyi(45, 0.3, seed=9), 3, seed=10)


class TestLabeledPattern:
    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            LabeledPattern(triangle(), (0, 1))

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            LabeledPattern(triangle(), (0, -1, 0))

    def test_accessors(self):
        lp = LabeledPattern(triangle(), (0, 1, 1))
        assert lp.label_of(0) == 0
        assert lp.distinct_labels() == {0, 1}
        assert lp.n_vertices == 3


class TestLabeledAutomorphisms:
    def test_uniform_labels_full_group(self):
        lp = LabeledPattern(triangle(), (5, 5, 5))
        assert labeled_automorphism_count(lp) == 6

    def test_distinct_labels_trivial_group(self):
        lp = LabeledPattern(triangle(), (0, 1, 2))
        assert labeled_automorphism_count(lp) == 1

    def test_partial_labels(self):
        lp = LabeledPattern(triangle(), (0, 0, 1))
        assert labeled_automorphism_count(lp) == 2

    def test_rectangle_alternating(self):
        # Alternating labels keep rotations by 2 and both diagonal flips.
        lp = LabeledPattern(rectangle(), (0, 1, 0, 1))
        assert labeled_automorphism_count(lp) == 4

    def test_subgroup_of_structural(self):
        from repro.pattern.automorphism import automorphisms

        lp = LabeledPattern(house(), (0, 0, 1, 1, 2))
        labeled = set(labeled_automorphisms(lp))
        assert labeled <= set(automorphisms(house()))

    def test_is_labeled_automorphism(self):
        lp = LabeledPattern(rectangle(), (0, 1, 0, 1))
        assert is_labeled_automorphism(lp, (2, 3, 0, 1))
        assert not is_labeled_automorphism(lp, (1, 2, 3, 0))  # breaks labels


class TestLabeledGraph:
    def test_label_length_checked(self):
        g = erdos_renyi(10, 0.3, seed=1)
        with pytest.raises(ValueError):
            LabeledGraph(g, np.zeros(5, dtype=np.int64))

    def test_negative_labels_rejected(self):
        g = erdos_renyi(4, 0.9, seed=1)
        with pytest.raises(ValueError):
            LabeledGraph(g, np.array([0, 1, -1, 0]))

    def test_filter_by_label_sorted(self, lgraph):
        cand = lgraph.vertices()
        sub = lgraph.filter_by_label(cand, 1)
        assert np.all(np.diff(sub) > 0)
        assert all(lgraph.label_of(int(v)) == 1 for v in sub)

    def test_vertices_with_label_partition(self, lgraph):
        total = sum(len(lgraph.vertices_with_label(l)) for l in range(3))
        assert total == lgraph.n_vertices

    def test_histogram(self, lgraph):
        hist = lgraph.label_histogram()
        assert sum(hist.values()) == lgraph.n_vertices

    def test_weighted_assignment(self):
        g = erdos_renyi(500, 0.02, seed=3)
        lg = assign_random_labels(g, 2, seed=4, weights=[0.9, 0.1])
        hist = lg.label_histogram()
        assert hist[0] > 3 * hist.get(1, 0)

    def test_weight_validation(self):
        g = erdos_renyi(10, 0.3, seed=1)
        with pytest.raises(ValueError):
            assign_random_labels(g, 2, weights=[1.0])
        with pytest.raises(ValueError):
            assign_random_labels(g, 0)


class TestLabeledRestrictionSets:
    def test_trivial_group_empty_set(self):
        lp = LabeledPattern(triangle(), (0, 1, 2))
        assert labeled_restriction_sets(lp) == [frozenset()]

    def test_uniform_labels_match_unlabeled(self):
        from repro.core.restrictions import generate_restriction_sets

        lp = LabeledPattern(triangle(), (0, 0, 0))
        assert set(labeled_restriction_sets(lp)) == set(
            generate_restriction_sets(triangle())
        )

    def test_partial_group_sets_are_smaller(self):
        lp = LabeledPattern(triangle(), (0, 0, 1))
        sets = labeled_restriction_sets(lp)
        assert all(len(rs) == 1 for rs in sets)
        flat = {r for rs in sets for r in rs}
        assert flat == {(0, 1), (1, 0)}


class TestLabeledCounting:
    CASES = [
        (triangle(), (0, 0, 0)),
        (triangle(), (0, 0, 1)),
        (triangle(), (0, 1, 2)),
        (rectangle(), (0, 1, 0, 1)),
        (rectangle(), (0, 0, 1, 1)),
        (house(), (0, 0, 1, 1, 2)),
        (star(3), (1, 0, 0, 0)),
    ]

    @pytest.mark.parametrize("pattern,labels", CASES,
                             ids=[f"{p.name}-{l}" for p, l in CASES])
    def test_matches_labeled_bruteforce(self, lgraph, pattern, labels):
        lp = LabeledPattern(pattern, labels)
        assert labeled_count(lgraph, lp) == labeled_bruteforce_count(lgraph, lp)

    def test_labeled_counts_sum_to_unlabeled(self, lgraph):
        """Summing triangle counts over all label assignments (up to
        labeled symmetry) must equal the unlabeled triangle count."""
        from itertools import combinations_with_replacement, permutations

        from repro.baselines.bruteforce import bruteforce_count

        total = 0
        seen = set()
        for labels in combinations_with_replacement(range(3), 3):
            for perm in set(permutations(labels)):
                if perm in seen:
                    continue
                seen.add(perm)
            # count each distinct multiset-assignment once per orbit of
            # label layouts under the triangle's symmetric group: for a
            # triangle, distinct multisets are enough.
            lp = LabeledPattern(triangle(), labels)
            total += labeled_count(lgraph, lp)
        assert total == bruteforce_count(lgraph.graph, triangle())

    def test_match_yields_correctly_labeled(self, lgraph):
        lp = LabeledPattern(triangle(), (0, 0, 1))
        for emb in LabeledMatcher(lp).match(lgraph, limit=10):
            assert lgraph.label_of(emb[0]) == 0
            assert lgraph.label_of(emb[1]) == 0
            assert lgraph.label_of(emb[2]) == 1
            assert lgraph.graph.has_edge(emb[0], emb[1])

    def test_plan_report(self, lgraph):
        lp = LabeledPattern(house(), (0, 0, 1, 1, 2))
        report = LabeledMatcher(lp).plan(lgraph)
        assert report.predicted_cost > 0
        assert len(report.restriction_sets) >= 1
        assert report.n_schedules >= 1

    def test_disconnected_rejected(self):
        lp = LabeledPattern(Pattern(4, [(0, 1), (2, 3)]), (0, 0, 0, 0))
        with pytest.raises(ValueError):
            LabeledMatcher(lp)

    def test_missing_label_counts_zero(self, lgraph):
        lp = LabeledPattern(triangle(), (7, 7, 7))  # label absent from graph
        assert labeled_count(lgraph, lp) == 0


class TestLabeledIEP:
    """§IV-D composed with labels: filtered inner sets + labeled-group divisor."""

    def _lg(self, n=50, p=0.18, n_labels=2, seed=61):
        from repro.graph.generators import erdos_renyi
        from repro.graph.labeled import assign_random_labels

        return assign_random_labels(erdos_renyi(n, p, seed=seed), n_labels,
                                    seed=seed + 1)

    @pytest.mark.parametrize(
        "pattern,labels",
        [
            (rectangle(), (0, 0, 0, 0)),
            (rectangle(), (0, 1, 0, 1)),
            (star(3), (0, 1, 1, 1)),
            (house(), (0, 0, 1, 1, 0)),
        ],
    )
    def test_iep_equals_plain(self, pattern, labels):
        lg = self._lg()
        lp = LabeledPattern(pattern, labels)
        m = LabeledMatcher(lp)
        assert m.count(lg, use_iep=True) == m.count(lg, use_iep=False)

    def test_iep_equals_bruteforce(self):
        lg = self._lg(n=35)
        lp = LabeledPattern(star(3), (0, 1, 1, 1))
        got = LabeledMatcher(lp).count(lg, use_iep=True)
        assert got == labeled_bruteforce_count(lg, lp)

    def test_iep_plan_actually_fires(self):
        """star leaves are pairwise non-adjacent: with uniform leaf labels
        the plan must realise k >= 2 and carry a labeled-group divisor
        when inner restrictions get dropped."""
        lg = self._lg()
        lp = LabeledPattern(star(3), (0, 1, 1, 1))
        rep = LabeledMatcher(lp).plan(lg, use_iep=True)
        assert rep.plan.iep_k >= 2
        if rep.plan.dropped_restrictions:
            assert rep.plan.iep_overcount > 1

    def test_distinct_labels_make_overcount_trivial(self):
        """With all-distinct leaf labels the labeled group is trivial, so
        no restrictions exist to drop and the divisor stays 1."""
        lg = self._lg(n_labels=4)
        lp = LabeledPattern(star(3), (0, 1, 2, 3))
        rep = LabeledMatcher(lp).plan(lg, use_iep=True)
        assert rep.plan.iep_overcount == 1
        assert LabeledMatcher(lp).count(lg, use_iep=True) == \
            labeled_bruteforce_count(lg, lp)

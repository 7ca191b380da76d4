"""Algorithm 1: 2-cycle based automorphism elimination."""

from math import factorial

import pytest


from repro.core.restrictions import (
    NonUniformOvercountError,
    RestrictionGenerator,
    check_restrictions_applicable,
    generate_restriction_sets,
    iep_overcount_multiplicity,
    no_conflict,
    restriction_overcount_factor,
    surviving_permutations,
    validate_restriction_set,
)
from repro.pattern.automorphism import (
    automorphism_count,
    automorphisms,
    orbits,
    pointwise_stabilizer,
)
from repro.pattern.catalog import (
    NAMED_PATTERNS,
    clique,
    cycle,
    cycle_6_tri,
    get_pattern,
    house,
    path,
    pentagon,
    rectangle,
    star,
    triangle,
)
from repro.pattern.directed import directed_automorphisms, get_directed_pattern
from repro.pattern.labeled import LabeledPattern, labeled_automorphisms
from repro.pattern.pattern import Pattern
from repro.pattern.permutation import is_identity
from repro.streaming.delta_plan import dart_orbits


class TestNoConflict:
    def test_paper_example_round1(self):
        """Figure 4(d): after {id(B)>id(D), id(A)>id(C)}, permutation ②
        (A,D,C,B) is eliminated."""
        # A=0, B=1, C=2, D=3; ② maps A→D, D→C, C→B, B→A i.e. p=(3,0,1,2).
        perm = (3, 0, 1, 2)
        res = {(1, 3), (0, 2)}  # id(B)>id(D), id(A)>id(C)
        assert not no_conflict(perm, res)

    def test_direct_contradiction(self):
        # Restriction (0,1) plus the swap (0 1) forces a 2-cycle in g.
        assert not no_conflict((1, 0), {(0, 1)})

    def test_identity_survives_acyclic_set(self):
        assert no_conflict((0, 1, 2), {(0, 1), (1, 2)})

    def test_identity_eliminated_by_cyclic_set(self):
        # A contradictory restriction set kills even the identity.
        assert not no_conflict((0, 1, 2), {(0, 1), (1, 2), (2, 0)})

    def test_unrelated_permutation_survives(self):
        assert no_conflict((0, 2, 1), {(0, 1)}) is True or True  # smoke
        # (1 2) with restriction id(0)>id(1): edges 0→1, 0→2: acyclic.
        assert no_conflict((0, 2, 1), {(0, 1)})

    def test_empty_set_eliminates_nothing(self):
        perms = automorphisms(rectangle())
        assert surviving_permutations(perms, frozenset()) == perms


class TestValidate:
    def test_valid_triangle_chain(self):
        assert validate_restriction_set(triangle(), frozenset({(0, 1), (1, 2)}))

    def test_insufficient_set_rejected(self):
        # One restriction cannot break S3 completely.
        assert not validate_restriction_set(triangle(), frozenset({(0, 1)}))

    def test_contradictory_set_rejected(self):
        assert not validate_restriction_set(
            triangle(), frozenset({(0, 1), (1, 2), (2, 0)})
        )

    def test_asymmetric_pattern_empty_set(self):
        # The smallest connected asymmetric graphs have 6 vertices; this
        # one has a trivial group, so the empty set validates.
        p = Pattern(6, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3)])
        assert automorphism_count(p) == 1
        assert validate_restriction_set(p, frozenset())


class TestGeneration:
    @pytest.mark.parametrize(
        "pattern",
        [triangle(), rectangle(), house(), pentagon(), cycle_6_tri(), clique(4)],
        ids=lambda p: p.name,
    )
    def test_every_generated_set_is_valid(self, pattern):
        sets = generate_restriction_sets(pattern)
        assert sets, "at least one set must be generated"
        for rs in sets:
            assert validate_restriction_set(pattern, rs), rs

    def test_validate_step_is_load_bearing(self):
        """Algorithm 1's lines 19-23 are not a mere safety net: for the
        rectangle, most 2-cycle branches eliminate every non-identity
        permutation *pairwise* yet over-restrict (both members of some
        orbit violate the set), losing embeddings.  validate() is what
        rejects them."""
        unvalidated = generate_restriction_sets(rectangle(), validate=False)
        validated = generate_restriction_sets(rectangle(), validate=True)
        assert len(validated) < len(unvalidated)
        bad = [rs for rs in unvalidated if not validate_restriction_set(rectangle(), rs)]
        assert bad, "expected some pairwise-eliminating but invalid sets"
        # Every bad set still reduces the surviving group to identity.
        perms = automorphisms(rectangle())
        for rs in bad[:5]:
            assert surviving_permutations(perms, rs) == [tuple(range(4))]

    @pytest.mark.parametrize(
        "pattern",
        [triangle(), rectangle(), house(), pentagon(), cycle_6_tri()],
        ids=lambda p: p.name,
    )
    def test_only_identity_survives(self, pattern):
        perms = automorphisms(pattern)
        for rs in generate_restriction_sets(pattern):
            survivors = surviving_permutations(perms, rs)
            assert survivors == [tuple(range(pattern.n_vertices))]

    def test_multiple_sets_generated(self):
        """The paper's headline: unlike GraphZero, many sets per pattern."""
        assert len(generate_restriction_sets(rectangle())) > 1
        assert len(generate_restriction_sets(house())) > 1
        assert len(generate_restriction_sets(triangle())) > 1

    def test_house_contains_paper_restriction(self):
        """Fig. 5 uses id(A) > id(B) for the house — one of our sets."""
        sets = generate_restriction_sets(house())
        assert frozenset({(0, 1)}) in sets or frozenset({(1, 0)}) in sets

    def test_both_orientations_appear(self):
        sets = generate_restriction_sets(house())
        flat = {r for rs in sets for r in rs}
        assert (0, 1) in flat and (1, 0) in flat

    def test_asymmetric_pattern_gets_empty_set(self):
        p = Pattern(6, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3)])
        assert generate_restriction_sets(p) == [frozenset()]

    def test_max_sets_cap(self):
        gen = RestrictionGenerator(clique(5), max_sets=3)
        assert len(gen.generate()) <= 3

    def test_deterministic_order(self):
        a = generate_restriction_sets(house())
        b = generate_restriction_sets(house())
        assert a == b

    def test_restrictions_use_two_cycle_vertices(self):
        """Every generated restriction pair is a 2-cycle of some
        automorphism — the defining property of Algorithm 1."""
        pattern = rectangle()
        from repro.pattern.permutation import two_cycles

        all_two_cycles = set()
        for perm in automorphisms(pattern):
            for a, b in two_cycles(perm):
                all_two_cycles.add((a, b))
                all_two_cycles.add((b, a))
        for rs in generate_restriction_sets(pattern):
            for pair in rs:
                assert pair in all_two_cycles


class TestOvercount:
    def test_complete_set_multiplicity_one(self):
        for rs in generate_restriction_sets(house()):
            assert iep_overcount_multiplicity(house(), rs) == 1

    def test_empty_set_multiplicity_is_group_order(self):
        assert iep_overcount_multiplicity(triangle(), frozenset()) == 6
        assert iep_overcount_multiplicity(rectangle(), frozenset()) == 8

    def test_triangle_partial_set(self):
        """id(0)>id(1) keeps 3 of each triangle's 6 labellings —
        the case where the paper's no_conflict count (5) is wrong."""
        kept = frozenset({(0, 1)})
        assert iep_overcount_multiplicity(triangle(), kept) == 3
        assert restriction_overcount_factor(triangle(), kept) == 5

    def test_non_uniform_raises(self):
        """Opposite-edge restrictions on the rectangle: multiplicity
        oscillates between 2 and 4 across orbits (see config docstring)."""
        kept = frozenset({(0, 1), (2, 3)})
        with pytest.raises(NonUniformOvercountError):
            iep_overcount_multiplicity(rectangle(), kept)

    def test_multiplicity_divides_group_order(self):
        kept = frozenset({(0, 1)})
        m = iep_overcount_multiplicity(pentagon(), kept)
        assert 1 <= m <= automorphism_count(pentagon())


class TestApplicability:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_restrictions_applicable(triangle(), {(0, 3)})

    def test_rejects_reflexive(self):
        with pytest.raises(ValueError):
            check_restrictions_applicable(triangle(), {(1, 1)})

    def test_accepts_valid(self):
        check_restrictions_applicable(triangle(), {(0, 1), (1, 2)})


class TestPaperNumbers:
    def test_seven_clique_automorphisms(self):
        """§II-B: 'For a 7-clique pattern, each embedding has 5,040
        automorphisms.'"""
        assert automorphism_count(clique(7)) == factorial(7) == 5040

    def test_clique_chain_restriction_exists(self):
        """For cliques the total order chain must be among the sets."""
        sets = generate_restriction_sets(clique(4), max_sets=500)
        chains = [
            frozenset({(a, b) for a, b in zip(order, order[1:])})
            for order in [(0, 1, 2, 3), (3, 2, 1, 0)]
        ]
        # At least one total-order chain (up to orientation) is found.
        assert any(any(chain <= rs for rs in sets) for chain in chains)


class TestOrbitAnchorFallback:
    """The 2-cycle scan alone cannot break 2-cycle-free groups (pure
    rotations); the orbit-anchor fallback must kick in."""

    def test_cyclic_group_c3(self):
        from repro.core.restrictions import RestrictionGenerator, surviving_permutations
        from repro.pattern.catalog import triangle

        c3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        sets = RestrictionGenerator(triangle(), auts=c3).generate()
        assert sets, "fallback must produce at least one set"
        for rs in sets:
            assert len(surviving_permutations(c3, rs)) == 1

    def test_cyclic_group_c4(self):
        from repro.core.restrictions import RestrictionGenerator, surviving_permutations
        from repro.pattern.catalog import cycle

        c4 = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
        sets = RestrictionGenerator(cycle(4), auts=c4).generate()
        assert len(sets) >= 2, "one anchor choice per orbit vertex"
        for rs in sets:
            assert len(surviving_permutations(c4, rs)) == 1

    def test_anchor_sets_validate_on_complete_graph(self):
        from repro.core.restrictions import (
            RestrictionGenerator,
            validate_restriction_set,
        )
        from repro.pattern.catalog import cycle

        c4 = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
        for rs in RestrictionGenerator(cycle(4), auts=c4).generate():
            assert validate_restriction_set(cycle(4), rs, auts=c4)

    def test_fallback_not_triggered_for_full_groups(self):
        """Undirected pattern groups always expose 2-cycles at the first
        level; the paper's algorithm works unmodified — anchor sets
        (|orbit|-1 restrictions on one shared vertex) should not be the
        *only* output shape."""
        from repro.core.restrictions import generate_restriction_sets
        from repro.pattern.catalog import rectangle

        sets = generate_restriction_sets(rectangle())
        # paper Figure 4(d): valid rectangle sets carry 3 restrictions,
        # e.g. {id(A)>id(B), id(A)>id(C), id(B)>id(D)}
        assert min(len(rs) for rs in sets) == 3
        assert frozenset({(0, 1), (0, 2), (1, 3)}) in sets


# ---------------------------------------------------------------------------
# the count prune vs the unpruned search
# ---------------------------------------------------------------------------
def unpruned_restriction_sets(pattern, auts, max_sets=None, validate=True) -> list:
    """Algorithm 1 without the count prune, kept as the oracle: every
    branch re-peels its whole set with ``no_conflict`` and a leaf is
    validated from scratch on K_n."""
    seen, results = set(), []

    def capped():
        return max_sets is not None and len(results) >= max_sets

    def descend(pg, new_set):
        if new_set in seen:
            return False
        seen.add(new_set)
        recurse(surviving_permutations(pg, new_set), new_set)
        return capped()

    def recurse(pg, res_set):
        if capped():
            return
        if len(pg) <= 1:
            if not validate or validate_restriction_set(pattern, res_set, auts=auts):
                results.append(res_set)
            return
        found_2cycle = False
        for perm in pg:
            if is_identity(perm):
                continue
            for vertex, image in enumerate(perm):
                if image == vertex or perm[image] != vertex:
                    continue
                found_2cycle = True
                if descend(pg, res_set | {(vertex, image)}):
                    return
        if not found_2cycle:
            for orbit in orbits(pg):
                if len(orbit) <= 1:
                    continue
                for v in orbit:
                    if descend(pg, res_set | {(u, v) for u in orbit if u != v}):
                        return

    if len(auts) == 1:
        return [frozenset()]
    recurse(list(auts), frozenset())
    return sorted(set(results), key=lambda rs: (len(rs), sorted(rs)))


def _prune_cases() -> dict:
    """(pattern, group) per case: plain catalogue patterns up to 6
    vertices, the labeled and directed subgroups the planners use, and
    the dart stabilisers of streaming's anchored plans."""
    plain = {name: make() for name, make in NAMED_PATTERNS.items()}
    plain.update({name: get_pattern(name) for name in ("P1", "P2", "P3", "P4")})
    for n in range(3, 7):
        plain.update({
            f"clique-{n}": clique(n), f"star-{n}": star(n - 1),
            f"cycle-{n}": cycle(n), f"path-{n}": path(n),
        })
    cases = {}
    for name, p in plain.items():
        if p.n_vertices > 6:
            continue
        auts = automorphisms(p)
        cases[f"plain/{name}"] = (p, auts)
        if name in ("house", "pentagon", "clique-4", "cycle-6", "P2"):
            for orbit in dart_orbits(p, auts):
                stab = pointwise_stabilizer(auts, list(orbit[0]))
                cases[f"stab/{name}/{orbit[0]}"] = (p, stab)
    for name, labels in (
        ("house", (0, 1, 0, 1, 2)), ("house", (0, 0, 0, 1, 1)),
        ("clique-5", (0, 0, 0, 1, 1)), ("clique-4", (0, 0, 0, 0)),
        ("cycle-6", (0, 1, 0, 1, 0, 1)), ("P3", (0, 0, 1, 1, 2, 2)),
    ):
        lp = LabeledPattern(get_pattern(name), labels)
        cases[f"labeled/{name}/{labels}"] = (lp.pattern, labeled_automorphisms(lp))
    for name in (
        "ffl", "bifan", "transitive-triangle", "dcycle-3", "dcycle-4", "dcycle-5",
        "dpath-4", "outstar-4", "outstar-5", "dclique-4",
    ):
        dp = get_directed_pattern(name)
        cases[f"directed/{name}"] = (dp.skeleton(), directed_automorphisms(dp))
    return cases


PRUNE_CASES = _prune_cases()


@pytest.mark.parametrize("key", sorted(PRUNE_CASES))
def test_count_prune_matches_unpruned_search(key):
    """Same sets in the same order at every cap — the cap is where the
    search order decides which sets are kept."""
    pattern, auts = PRUNE_CASES[key]
    caps = [1, 8, 64] + ([None] if pattern.n_vertices <= 5 else [])
    for cap in caps:
        gen = RestrictionGenerator(pattern, auts=auts, max_sets=cap)
        assert gen.generate() == unpruned_restriction_sets(pattern, auts, cap), (key, cap)


def test_orbit_anchor_path_is_pruned_too():
    """dcycle-4's rotation group has no 2-cycles, so its first branches
    are orbit anchors, and the count cuts some of what follows."""
    dp = get_directed_pattern("dcycle-4")
    auts = directed_automorphisms(dp)
    gen = RestrictionGenerator(dp.skeleton(), auts=auts)
    assert gen.generate() == unpruned_restriction_sets(dp.skeleton(), auts)
    assert gen.explored > 0 and gen.pruned > 0


def test_prune_cuts_most_pentagon_branches():
    gen = RestrictionGenerator(pentagon(), max_sets=64)
    assert len(gen.generate()) == 64
    assert gen.pruned > gen.explored > 0


class TestLargePatterns:
    """The rank matrix stops at 9 vertices; only validation needs it."""

    def test_unvalidated_ten_vertex_cycle_runs(self):
        pattern = cycle(10)
        sets = generate_restriction_sets(pattern, validate=False, max_sets=4)
        assert len(sets) == 4
        assert sets == unpruned_restriction_sets(
            pattern, automorphisms(pattern), 4, validate=False
        )

    def test_validated_ten_vertex_cycle_raises(self):
        with pytest.raises(ValueError, match="too large"):
            generate_restriction_sets(cycle(10), max_sets=4)

"""Vertex-induced matching: engine filtering vs Möbius inversion vs oracle."""

from __future__ import annotations

import pytest

from repro.baselines.bruteforce import bruteforce_count, bruteforce_induced_count
from repro.core.api import count_pattern
from repro.core.config import Configuration, compile_plan
from repro.core.induced import (
    induced_count,
    induced_count_engine,
    induced_count_via_moebius,
    induced_enumerate,
    noninduced_from_induced,
    supergraph_decomposition,
)
from repro.core.restrictions import generate_restriction_sets
from repro.core.schedule import generate_schedules
from repro.core.session import plan_plain
from repro.graph.generators import complete_graph, erdos_renyi
from repro.graph.stats import GraphStats
from repro.pattern.catalog import (
    clique,
    cycle,
    get_pattern,
    house,
    path,
    rectangle,
    star,
    triangle,
)
from repro.pattern.isomorphism import canonical_form
from repro.pattern.pattern import Pattern


PATTERNS = {
    "triangle": triangle(),
    "rectangle": rectangle(),
    "path3": path(3),
    "star3": star(3),
    "house": house(),
    "c4": cycle(4),
    "k4": clique(4),
}


# ---------------------------------------------------------------------------
# supergraph decomposition structure
# ---------------------------------------------------------------------------
def test_decomposition_of_clique_is_singleton():
    terms = supergraph_decomposition(clique(4))
    assert len(terms) == 1
    assert terms[0].coefficient == 1
    assert terms[0].pattern == clique(4)


def test_decomposition_first_term_is_pattern_itself():
    for p in PATTERNS.values():
        terms = supergraph_decomposition(p)
        assert canonical_form(terms[0].pattern) == canonical_form(p)
        assert terms[0].coefficient == 1


def test_decomposition_rectangle_terms():
    # C4's proper supergraphs on 4 vertices: the diamond (one diagonal,
    # 2 labeled ways) and K4 (both diagonals, 1 way).
    terms = supergraph_decomposition(rectangle())
    assert len(terms) == 3
    by_edges = {t.pattern.n_edges: t for t in terms}
    assert by_edges[4].coefficient == 1  # C4 itself
    # diamond: a = 2 labeled supersets, |Aut(diamond)| = 4, |Aut(C4)| = 8
    assert by_edges[5].coefficient == 1
    # K4: a = 1, |Aut(K4)| = 24, |Aut(C4)| = 8 -> coefficient 3
    assert by_edges[6].coefficient == 3


def test_decomposition_path3_terms():
    # P3 (path on 3 vertices) ⊂ triangle: a = 1, |Aut(K3)|=6, |Aut(P3)|=2
    terms = supergraph_decomposition(path(3))
    assert len(terms) == 2
    assert terms[1].pattern == clique(3)
    assert terms[1].coefficient == 3


def test_decomposition_coefficients_positive():
    for p in PATTERNS.values():
        for t in supergraph_decomposition(p):
            assert t.coefficient >= 1
            assert t.pattern.n_vertices == p.n_vertices
            assert t.pattern.n_edges >= p.n_edges


# ---------------------------------------------------------------------------
# counts: engine vs Möbius vs brute force
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", list(PATTERNS))
def test_induced_engine_matches_bruteforce(name, er_small):
    p = PATTERNS[name]
    expected = bruteforce_induced_count(er_small, p)
    assert induced_count(er_small, p, method="engine") == expected


@pytest.mark.parametrize("name", ["triangle", "rectangle", "path3", "star3", "c4"])
def test_induced_moebius_matches_bruteforce(name, er_small):
    p = PATTERNS[name]
    expected = bruteforce_induced_count(er_small, p)
    assert induced_count(er_small, p, method="moebius") == expected


def test_engine_and_moebius_agree_on_house(er_small):
    a = induced_count(er_small, house(), method="engine")
    b = induced_count(er_small, house(), method="moebius")
    assert a == b


def test_induced_le_noninduced(er_small):
    for p in PATTERNS.values():
        ind = induced_count(er_small, p, method="engine")
        non = count_pattern(er_small, p, use_iep=False)
        assert ind <= non


def test_clique_counts_coincide(er_small):
    # A clique has no anti-edges: both semantics agree.
    k4 = clique(4)
    assert induced_count(er_small, k4, method="engine") == count_pattern(
        er_small, k4, use_iep=False
    )


def test_triangle_free_pattern_on_complete_graph():
    # Induced C4s in K6: none (every 4 vertices induce K4).
    g = complete_graph(6)
    assert induced_count(g, rectangle(), method="engine") == 0
    assert induced_count(g, rectangle(), method="moebius") == 0
    # But non-induced C4s abound.
    assert count_pattern(g, rectangle(), use_iep=False) > 0


def test_forward_direction_reconstructs_noninduced(er_small):
    # noninduced(P) = Σ m(P,Q)·induced(Q) with induced counts from the engine.
    p = rectangle()
    table = {}
    for term in supergraph_decomposition(p):
        table[canonical_form(term.pattern)] = induced_count(
            er_small, term.pattern, method="engine"
        )
    assert noninduced_from_induced(p, table) == count_pattern(
        er_small, p, use_iep=False
    )


# ---------------------------------------------------------------------------
# engine mechanics
# ---------------------------------------------------------------------------
def _plan(graph, pattern, *, use_iep):
    return plan_plain(pattern, GraphStats.of(graph), use_iep=use_iep, codegen=False)


def test_induced_engine_rejects_iep_plan(er_small):
    rep = _plan(er_small, house(), use_iep=True)
    if rep.plan.iep_k == 0:
        pytest.skip("model did not choose IEP here")
    with pytest.raises(ValueError, match="iep_k=0"):
        compile_plan(rep.chosen.config, iep_k=rep.plan.iep_k, induced=True)


def test_induced_enumerate_yields_distinct_induced_embeddings(er_small):
    p = rectangle()
    rep = _plan(er_small, p, use_iep=False)
    embs = list(induced_enumerate(er_small, rep.chosen.config))
    # Every embedding is induced: no diagonal edges.
    for emb in embs:
        for u in range(4):
            for v in range(u + 1, 4):
                assert p.has_edge(u, v) == er_small.has_edge(emb[u], emb[v])
    # Distinct as vertex sets (restrictions kill automorphic duplicates).
    assert len({frozenset(e) for e in embs}) == len(embs)
    assert len(embs) == bruteforce_induced_count(er_small, p)


def test_induced_enumerate_limit(er_small):
    rep = _plan(er_small, triangle(), use_iep=False)
    embs = list(induced_enumerate(er_small, rep.chosen.config, limit=3))
    assert len(embs) == 3


def test_all_configurations_give_same_induced_count(er_small):
    """Induced counts are configuration-invariant (restrictions break
    induced automorphisms exactly as they break non-induced ones)."""
    p = path(3)
    expected = bruteforce_induced_count(er_small, p)
    schedules = generate_schedules(p, dedup_automorphic=True)
    res_sets = generate_restriction_sets(p, max_sets=64)
    for s in schedules:
        for r in res_sets:
            cfg = Configuration(p, s, frozenset(r))
            assert induced_count_engine(er_small, cfg) == expected


def test_disconnected_pattern_rejected(er_small):
    p = Pattern(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        induced_count(er_small, p)


def test_unknown_method_rejected(er_small):
    with pytest.raises(ValueError, match="unknown method"):
        induced_count(er_small, triangle(), method="magic")


def test_moebius_with_custom_counter(er_small):
    calls = []

    def counter(graph, pattern):
        calls.append(pattern.n_edges)
        return count_pattern(graph, pattern, use_iep=False)

    got = induced_count_via_moebius(er_small, path(3), noninduced_counter=counter)
    assert got == bruteforce_induced_count(er_small, path(3))
    # P3 lattice: {P3, K3}; the recursion counts each class once per
    # level of back-substitution.
    assert 3 in calls and 2 in calls


def test_pattern_larger_than_graph():
    g = complete_graph(3)
    assert induced_count(g, clique(4), method="engine") == 0

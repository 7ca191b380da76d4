"""Differential tests for the directed frontier engine's bulk IEP suffix.

Every directed catalogue pattern, and every orientation (antiparallel
arcs included, one per isomorphism class) of every connected skeleton of
at most five vertices whose schedule realises an independent suffix of
``k >= 2``, must count exactly what the IEP-free interpreter
:class:`~repro.core.engine.Engine` and a brute-force oracle
count — on random digraphs with reciprocal arcs, an isolated id in the
middle of the id range, and an empty digraph.  ``count_roots`` must
return raw partial sums that add over any root partition before the one
overcount division, and the int64 and Python-int paths of the IEP
arithmetic must agree.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
import pytest

from repro.baselines.bruteforce import bruteforce_directed_count
from repro.core import vectorised
from repro.core.backend import available_backends, get_backend
from repro.core.config import Configuration, compile_plan
from repro.core.directed import generate_directed_restriction_sets
from repro.core.engine import Engine
from repro.core.iep import apply_overcount
from repro.core.query import MatchQuery
from repro.core.restrictions import NonUniformOvercountError
from repro.core.schedule import generate_schedules, intersection_free_suffix_length
from repro.core.session import MatchSession
from repro.core.vectorised import FrontierEngine
from repro.graph.digraph import DiGraph, digraph_from_edges, random_digraph
from repro.obs import metrics as obs_metrics
from repro.pattern.automorphism import automorphisms
from repro.pattern.directed import (
    NAMED_DIPATTERNS,
    DiPattern,
    directed_automorphisms,
    get_directed_pattern,
)
from repro.pattern.isomorphism import connected_patterns

#: the sizes each parametric :func:`get_directed_pattern` family is
#: instantiated at (up to the six-vertex ``outstar-5``).
PARAMETRIC = {"dcycle": (3, 4, 5), "dpath": (3, 4, 5), "outstar": (2, 3, 4, 5), "dclique": (3, 4)}

#: every name :func:`get_directed_pattern` resolves.
CATALOGUE = sorted(NAMED_DIPATTERNS) + [f"{f}-{n}" for f, ns in PARAMETRIC.items() for n in ns]


def _reciprocal_digraph(n: int, seed: int, isolated: tuple[int, ...] = ()) -> DiGraph:
    """Each pair is a single arc either way or an antiparallel pair;
    ``isolated`` ids get no arcs at all."""
    rng = np.random.default_rng(seed)
    arcs = []
    for u, v in itertools.combinations(range(n), 2):
        if u in isolated or v in isolated:
            continue
        r = rng.random()
        if r < 0.2:
            arcs.append((u, v))
        elif r < 0.4:
            arcs.append((v, u))
        elif r < 0.55:
            arcs += [(u, v), (v, u)]
    return digraph_from_edges(arcs, n_vertices=n)


GRAPHS = {
    "recip-isolated-mid": lambda: _reciprocal_digraph(12, seed=5, isolated=(4, 7)),
    "recip-dense": lambda: _reciprocal_digraph(10, seed=8),
    "gnp": lambda: random_digraph(14, 0.2, seed=3),
    "empty": lambda: digraph_from_edges([], n_vertices=9),
    "too-small": lambda: digraph_from_edges([(0, 1), (1, 2), (2, 0)]),
}


@lru_cache(maxsize=None)
def _graph(name: str) -> DiGraph:
    return GRAPHS[name]()


def _suffix_schedule(skeleton) -> tuple:
    """The generated schedule with the longest independent suffix."""
    return max(
        generate_schedules(skeleton),
        key=lambda s: intersection_free_suffix_length(skeleton, s),
    )


def _suffix_plans(pattern: DiPattern, schedule=None, auts=None) -> tuple:
    """``(iep plan, IEP-free plan)`` on the skeleton schedule with the
    longest independent suffix, k shrunk until the overcount is uniform
    (as the planner shrinks it)."""
    skeleton = pattern.skeleton()
    if schedule is None:
        schedule = _suffix_schedule(skeleton)
    if auts is None:
        auts = directed_automorphisms(pattern)
    res = generate_directed_restriction_sets(pattern, max_sets=1, auts=auts)[0]
    k = intersection_free_suffix_length(skeleton, schedule)
    config = Configuration(skeleton, schedule, res)
    while True:
        try:
            plan = compile_plan(config, iep_k=k, auts=auts, dipattern=pattern)
            break
        except NonUniformOvercountError:
            k -= 1
    return plan, compile_plan(config, dipattern=pattern)


@lru_cache(maxsize=None)
def _catalogue_plans(name: str) -> tuple:
    return _suffix_plans(get_directed_pattern(name))


# ---------------------------------------------------------------------------
# the orientation sweep
# ---------------------------------------------------------------------------
def _iep_skeletons() -> list:
    """Connected skeletons of 2..5 vertices whose best connected-prefix
    schedule leaves an independent suffix of at least two vertices."""
    out = []
    for n in range(2, 6):
        for skeleton in connected_patterns(n):
            if intersection_free_suffix_length(skeleton, _suffix_schedule(skeleton)) >= 2:
                out.append(skeleton)
    return out


def _orientations(skeleton) -> list[DiPattern]:
    """One digraph per isomorphism class of the skeleton's orientations:
    each edge is ``u→v``, ``v→u`` or both."""
    edges = list(skeleton.edges)
    auts = automorphisms(skeleton)
    seen, out = set(), []
    for choice in itertools.product(range(3), repeat=len(edges)):
        arcs = []
        for (u, v), c in zip(edges, choice):
            if c != 1:
                arcs.append((u, v))
            if c != 0:
                arcs.append((v, u))
        canon = min(tuple(sorted((s[a], s[b]) for a, b in arcs)) for s in auts)
        if canon not in seen:
            seen.add(canon)
            out.append(DiPattern(skeleton.n_vertices, arcs))
    return out


SKELETONS = _iep_skeletons()


@lru_cache(maxsize=None)
def _skeleton_tuples(graph_name: str, edges: tuple, n: int) -> np.ndarray:
    """Brute force: every injective ``n``-tuple of the graph's vertices
    that maps each skeleton edge onto a pair joined by an arc either way."""
    graph = _graph(graph_name)
    size = graph.n_vertices
    if n > size:
        return np.empty((0, n), dtype=np.int64)
    either = _arc_matrix(graph_name)
    either = either | either.T
    tuples = np.array(list(itertools.permutations(range(size), n)), dtype=np.int64)
    keep = np.ones(len(tuples), dtype=bool)
    for u, v in edges:
        keep &= either[tuples[:, u], tuples[:, v]]
    return tuples[keep]


@lru_cache(maxsize=None)
def _arc_matrix(graph_name: str) -> np.ndarray:
    graph = _graph(graph_name)
    arcs = np.zeros((graph.n_vertices, graph.n_vertices), dtype=bool)
    for u in range(graph.n_vertices):
        arcs[u, graph.out_neighbors(u)] = True
    return arcs


def _oracle(graph_name: str, skeleton, pattern: DiPattern, aut: int) -> int:
    """Distinct embeddings of ``pattern`` (``aut`` directed automorphisms)."""
    tuples = _skeleton_tuples(graph_name, tuple(skeleton.edges), skeleton.n_vertices)
    arcs = _arc_matrix(graph_name)
    keep = np.ones(len(tuples), dtype=bool)
    for u, v in pattern.arcs:
        keep &= arcs[tuples[:, u], tuples[:, v]]
    assignments = int(keep.sum())
    assert assignments % aut == 0
    return assignments // aut


def test_the_sweep_covers_every_small_iep_skeleton():
    sizes = [s.n_vertices for s in SKELETONS]
    assert sizes.count(3) == 1  # the 2-path; the triangle is a clique
    assert sizes.count(4) == 4  # all but the 4-cycle and K4
    assert sizes.count(5) == 19  # all but the 5-cycle and K5


@pytest.mark.parametrize("skeleton", SKELETONS, ids=lambda s: f"{s.n_vertices}v-{s.name}")
def test_every_orientation_matches_interpreter_and_bruteforce(skeleton):
    graph = _graph("recip-isolated-mid")
    empty = _graph("empty")
    schedule = _suffix_schedule(skeleton)
    bulk = 0
    for pattern in _orientations(skeleton):
        auts = directed_automorphisms(pattern)
        plan, free = _suffix_plans(pattern, schedule, auts)
        bulk += plan.iep_k >= 2
        got = FrontierEngine(graph, plan).count()
        expected = _oracle("recip-isolated-mid", skeleton, pattern, len(auts))
        assert got == Engine(graph, free).count() == expected, (
            pattern.arcs, plan.schedule, plan.iep_k, got, expected
        )
        assert FrontierEngine(empty, plan).count() == 0
    assert bulk, "no orientation realised a bulk IEP suffix"


# ---------------------------------------------------------------------------
# the catalogue, through the engine and through the session default
# ---------------------------------------------------------------------------
@lru_cache(maxsize=None)
def _expected(graph_name: str, name: str) -> int:
    return bruteforce_directed_count(_graph(graph_name), get_directed_pattern(name))


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("name", CATALOGUE)
def test_catalogue_matches_interpreter_and_bruteforce(graph_name, name):
    graph = _graph(graph_name)
    expected = _expected(graph_name, name)
    plan, free = _catalogue_plans(name)
    got = FrontierEngine(graph, plan).count()
    assert got == Engine(graph, free).count() == expected, (plan.iep_k, got)
    assert FrontierEngine(graph, plan, root_chunk=3).count() == expected
    # the session's own default plan (IEP on) runs on the frontier engine
    session = MatchSession(graph)
    query = MatchQuery(get_directed_pattern(name))
    assert query.resolved_use_iep
    result = session.count(query)
    assert result.backend == "vectorised"
    assert result.count == expected


def test_catalogue_exercises_bulk_suffixes():
    ks = {name: _catalogue_plans(name)[0].iep_k for name in CATALOGUE}
    assert ks["dpath-4"] == 2 and ks["outstar-5"] == 5
    assert any(_catalogue_plans(n)[0].iep_overcount > 1 for n in CATALOGUE)


@pytest.mark.parametrize("name", [n for n in CATALOGUE if n.startswith(("dpath", "outstar"))])
def test_count_roots_partials_add_before_one_division(name):
    graph = _graph("recip-dense")
    plan, _ = _catalogue_plans(name)
    engine = FrontierEngine(graph, plan)
    rng = np.random.default_rng(3)
    parts = np.array_split(rng.permutation(graph.vertices()), 3)
    raw = sum(engine.count_roots(np.sort(part)) for part in parts)
    assert apply_overcount(plan, raw) == engine.count()
    if plan.iep_overcount > 1 and raw:
        assert raw != engine.count()  # the division really is deferred


@pytest.mark.parametrize("limit", [1, 40, 10**4])
def test_exact_paths_agree_with_int64(monkeypatch, limit):
    """Shrinking the int64 ceiling forces the sliced-sum and the
    Python-int evaluation paths; the counts must not move."""
    graph = _graph("recip-dense")
    names = ("dpath-4", "dpath-5", "outstar-3", "outstar-5")
    expected = [FrontierEngine(graph, _catalogue_plans(n)[0]).count() for n in names]
    monkeypatch.setattr(vectorised, "IEP_INT64_LIMIT", limit)
    got = [FrontierEngine(graph, _catalogue_plans(n)[0]).count() for n in names]
    assert got == expected


def test_enumeration_of_a_default_directed_query_still_works():
    graph = _graph("recip-dense")
    session = MatchSession(graph)
    query = MatchQuery(get_directed_pattern("dpath-4"))
    assert session.plan_for(query).plan.iep_k == 2
    got = set(session.enumerate(query))
    assert got == set(session.enumerate(query, backend="interpreter"))
    assert len(got) == session.count(query).count == _expected("recip-dense", "dpath-4")
    plan, _ = _catalogue_plans("dpath-4")
    with pytest.raises(ValueError, match="iep_k=0"):
        next(FrontierEngine(graph, plan).enumerate_embeddings())


# ---------------------------------------------------------------------------
# every directed backend runs the default (IEP) plan itself
# ---------------------------------------------------------------------------
DIRECTED_BACKENDS = sorted(
    name
    for name, info in available_backends().items()
    if info.capabilities.supports_mode("directed")
)
OPTIONS = {"parallel": {"n_workers": 2}, "distributed": {"simulate": False}}


@pytest.mark.parametrize("name", DIRECTED_BACKENDS)
def test_no_directed_backend_falls_back_on_dpath4(name):
    graph = _graph("recip-dense")
    backend = get_backend(name, **OPTIONS.get(name, {}))
    before = obs_metrics.REGISTRY.snapshot()
    result = MatchSession(graph).count(
        MatchQuery(get_directed_pattern("dpath-4"), backend=backend)
    )
    assert result.backend.split(":")[0] == name
    assert result.count == _expected("recip-dense", "dpath-4")
    assert not any(
        sample.startswith("repro_backend_fallbacks_total")
        for sample in obs_metrics.REGISTRY.delta(before)
    )


def test_explicit_use_iep_false_still_plans_iep_free():
    session = MatchSession(_graph("recip-dense"))
    query = MatchQuery(get_directed_pattern("dpath-4"), use_iep=False)
    assert session.plan_for(query).plan.iep_k == 0
    assert session.count(query).count == _expected("recip-dense", "dpath-4")

"""Differential tests for the frontier engine's bulk IEP suffix.

Every catalogue pattern of at most six vertices, under every IEP depth
``k`` its configuration can realise, must count exactly what the
interpreter :class:`~repro.core.engine.Engine` and the brute-force
oracle count — on seeded Erdős–Rényi graphs and on the degenerate
inputs that break array code first (no edges, isolated ids in the middle
of the id range, messy input edge lists, a pattern larger than the
graph).  ``count_roots`` must return raw partial sums that add over any
root partition, and the IEP arithmetic must stay exact past 2**63.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest

from repro.baselines.bruteforce import bruteforce_count
from repro.core import vectorised
from repro.core.api import count_pattern
from repro.core.config import Configuration
from repro.core.engine import Engine
from repro.core.iep import apply_overcount
from repro.core.query import MatchQuery
from repro.core.restrictions import NonUniformOvercountError, generate_restriction_sets
from repro.core.schedule import generate_schedules, intersection_free_suffix_length
from repro.core.session import MatchSession
from repro.core.vectorised import FrontierEngine
from repro.graph.builder import GraphBuilder, graph_from_edges
from repro.graph.csr import Graph
from repro.graph.generators import erdos_renyi
from repro.pattern.catalog import NAMED_PATTERNS, clique, cycle, get_pattern, path, star

#: every catalogue pattern with at most six vertices.
PATTERNS = [
    p
    for p in (
        [factory() for factory in NAMED_PATTERNS.values()]
        + [star(3), star(4), star(5), path(4), path(5), cycle(6), clique(4)]
    )
    if p.n_vertices <= 6
]


def _iep_schedule(pattern):
    """The generated schedule with the longest independent suffix."""
    return max(
        generate_schedules(pattern),
        key=lambda s: intersection_free_suffix_length(pattern, s),
    )


@lru_cache(maxsize=None)
def _plans(name: str) -> tuple:
    """``(k, plan)`` for every IEP depth the pattern's configuration
    realises, k = 0 included (the IEP-free baseline)."""
    pattern = next(p for p in PATTERNS if p.name == name)
    schedule = _iep_schedule(pattern)
    config = Configuration(
        pattern, schedule, generate_restriction_sets(pattern, max_sets=1)[0]
    )
    out = []
    for k in range(intersection_free_suffix_length(pattern, schedule) + 1):
        try:
            out.append((k, config.compile(iep_k=k)))
        except NonUniformOvercountError:
            continue
    return tuple(out)


def _isolated_mid_ids() -> Graph:
    # ids 5..9 and 15..17 never appear in an edge: isolated, mid-range.
    builder = GraphBuilder(compact_ids=False)
    rng = np.random.default_rng(7)
    ids = [i for i in range(22) if not (5 <= i < 10 or 15 <= i < 18)]
    for u in ids:
        for v in ids:
            if u < v and rng.random() < 0.35:
                builder.add_edge(u, v)
    graph = builder.build()
    assert graph.degrees[5:10].sum() == 0
    return graph


def _messy_edges() -> Graph:
    # duplicates in both orientations and self-loops are dropped on input.
    base = list(erdos_renyi(16, 0.4, seed=11).edges())
    messy = base + [(v, u) for u, v in base[::2]] + [(u, u) for u, _ in base[::3]]
    graph = graph_from_edges(messy)
    assert graph.n_edges == len(base)
    return graph


GRAPHS = {
    "er-a": lambda: erdos_renyi(18, 0.35, seed=1),
    "er-b": lambda: erdos_renyi(22, 0.25, seed=2),
    "empty": lambda: Graph(np.zeros(9, dtype=np.int64), np.empty(0, dtype=np.int64)),
    "isolated-mid": _isolated_mid_ids,
    "messy": _messy_edges,
    "too-small": lambda: graph_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]),
}


@lru_cache(maxsize=None)
def _graph(name: str) -> Graph:
    return GRAPHS[name]()


@lru_cache(maxsize=None)
def _oracle(graph_name: str, pattern_name: str) -> int:
    pattern = next(p for p in PATTERNS if p.name == pattern_name)
    return bruteforce_count(_graph(graph_name), pattern)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name)
def test_bulk_iep_matches_interpreter_and_bruteforce(graph_name, pattern):
    graph = _graph(graph_name)
    expected = _oracle(graph_name, pattern.name)
    plans = _plans(pattern.name)
    assert any(k > 0 for k, _ in plans), "no IEP depth exercised"
    for k, plan in plans:
        got = FrontierEngine(graph, plan).count()
        assert got == Engine(graph, plan).count() == expected, (k, got, expected)
        assert FrontierEngine(graph, plan, aux=True, root_chunk=5).count() == expected


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize(
    "pattern", [p for p in PATTERNS if len(_plans(p.name)) > 1], ids=lambda p: p.name
)
def test_one_vertex_suffix_counts_as_the_innermost_loop(graph_name, pattern):
    """A k = 1 suffix drops no restriction and has overcount 1, so a
    hand-built ``iep_k=1`` plan counts what the loop-only plan counts on
    the frontier, interpreter and compiled backends."""
    from repro.core.codegen import compile_plan_function

    graph = _graph(graph_name)
    (k0, loop), (k1, suffix) = _plans(pattern.name)[:2]
    assert (k0, k1, suffix.iep_overcount) == (0, 1, 1)
    counts = {
        (name, plan.iep_k): run(graph, plan)
        for plan in (loop, suffix)
        for name, run in (
            ("frontier", lambda g, p: FrontierEngine(g, p).count()),
            ("interpreter", lambda g, p: Engine(g, p).count()),
            ("compiled", lambda g, p: compile_plan_function(p)(g)),
        )
    }
    assert set(counts.values()) == {_oracle(graph_name, pattern.name)}, counts


def test_pattern_larger_than_graph_counts_zero():
    graph = _graph("too-small")
    for pattern in (star(5), get_pattern("cycle-6-tri")):
        for _, plan in _plans(pattern.name):
            engine = FrontierEngine(graph, plan)
            assert engine.count() == 0
            assert engine.count_roots(graph.vertices()) == 0


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name)
def test_count_roots_partials_add_before_one_division(pattern):
    graph = _graph("er-a")
    rng = np.random.default_rng(3)
    for k, plan in _plans(pattern.name):
        engine = FrontierEngine(graph, plan)
        roots = rng.permutation(graph.vertices())
        parts = np.array_split(roots, 4)
        raw = sum(engine.count_roots(np.sort(part)) for part in parts)
        assert apply_overcount(plan, raw) == engine.count(), k
        if plan.iep_overcount > 1 and raw:
            assert raw != engine.count()  # the division really is deferred


@pytest.mark.parametrize("limit", [1, 40, 10**4])
def test_exact_paths_agree_with_int64(monkeypatch, limit):
    """Shrinking the int64 ceiling forces the sliced-sum and the
    Python-int evaluation paths; the counts must not move."""
    graph = _graph("er-b")
    expected = {
        name: [FrontierEngine(graph, plan).count() for _, plan in _plans(name)]
        for name in ("star-4", "house", "cycle-6-tri")
    }
    monkeypatch.setattr(vectorised, "IEP_INT64_LIMIT", limit)
    for name, counts in expected.items():
        assert [FrontierEngine(graph, p).count() for _, p in _plans(name)] == counts


def test_star5_past_int64_is_exact_on_the_default_path():
    """20 000 leaves: comb(20000, 5) > 2**63, and a wrapped int64 sum is
    not even a multiple of the overcount divisor."""
    leaves = 20_000
    graph = graph_from_edges([(0, v) for v in range(1, leaves + 1)])
    expected = math.comb(leaves, 5)
    assert expected == 26653335666500004000 > 2**63
    session = MatchSession(graph)
    query = MatchQuery(get_pattern("star-5"))
    plan = session.plan_for(query).plan
    assert plan.iep_k == 5
    result = session.count(query)
    assert result.backend == "vectorised"
    assert result.count == expected
    assert count_pattern(graph, get_pattern("star-5")) == expected


def test_enumeration_refuses_iep_plans():
    k, plan = _plans("house")[-1]
    assert k > 0
    engine = FrontierEngine(_graph("er-a"), plan)
    with pytest.raises(ValueError, match="iep_k=0"):
        next(engine.enumerate_embeddings())
    with pytest.raises(ValueError, match="iep_k=0"):
        next(engine.frontier_blocks())

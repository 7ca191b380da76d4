"""A configuration and its mirror, on a degree-ordered graph and its
id-reversed twin.

Reversing every restriction ``id(a) > id(b)`` of a valid set gives
another valid set (it keeps the representative the reversed id order
would keep), so a configuration and its mirror must count the same on
every backend and enumerate the same occurrences.  The model breaks
ties by pricing rows by their side of the id order, and reversing the
ids reverses every side: on the twin it must pick the mirror of the
winner it picks on the original.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backend import MatchContext, get_backend
from repro.core.config import Configuration, compile_plan
from repro.core.perf_model import degree_order_cost
from repro.core.query import MatchQuery
from repro.core.session import plan_query
from repro.graph.digraph import digraph_from_edges
from repro.graph.generators import barabasi_albert
from repro.graph.labeled import LabeledGraph
from repro.graph.orientation import apply_order
from repro.pattern.catalog import get_pattern
from repro.pattern.directed import get_directed_pattern
from repro.pattern.labeled import LabeledPattern

PLAIN = ("P1", "P2", "P3", "P4", "house")
#: the directed queries of the fig8-warm benchmark workload
DIRECTED = ("ffl", "bifan", "dcycle-3", "dpath-4")
LABELS = 2


def _twins():
    """A graph numbered in ascending degree order and its id-reversed
    twin, with labels and arc directions moved along."""
    base = barabasi_albert(36, 3, seed=7)
    graph, _ = apply_order(base, np.argsort(base.degrees, kind="stable"))
    n = graph.n_vertices
    rng = np.random.default_rng(5)
    labels = rng.integers(0, LABELS, n)
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in graph.edges()]
    twins = {}
    for name, order in (("ordered", np.arange(n)), ("reversed", np.arange(n)[::-1])):
        g, perm = apply_order(graph, order)
        moved = np.empty_like(labels)
        moved[perm] = labels
        twins[name] = {
            "plain": g,
            "induced": g,
            "labeled": LabeledGraph(g, moved),
            "directed": digraph_from_edges(
                [(int(perm[u]), int(perm[v])) for u, v in arcs], n_vertices=n
            ),
        }
    return twins


TWINS = _twins()


def _query(mode: str, name: str) -> MatchQuery:
    if mode == "directed":
        return MatchQuery(get_directed_pattern(name))
    pattern = get_pattern(name)
    if mode == "labeled":
        labels = tuple(i % LABELS for i in range(pattern.n_vertices))
        return MatchQuery(LabeledPattern(pattern, labels))
    return MatchQuery(pattern, semantics="induced" if mode == "induced" else "edge")


CASES = [
    (mode, name)
    for mode in ("plain", "induced", "labeled")
    for name in PLAIN
] + [("directed", name) for name in DIRECTED]


def mirror(config: Configuration) -> Configuration:
    return Configuration(
        config.pattern, config.schedule, frozenset((s, g) for g, s in config.restrictions)
    )


def _plans(report, mode: str, config: Configuration):
    """``(counting plan, enumerating plan)`` of ``config`` in ``mode``."""
    if mode == "induced":
        plan = compile_plan(config, induced=True)
        return plan, plan
    source = report.chosen.source
    return source.compile(config, report.plan.iep_k), source.compile(config, 0)


def _occurrences(query: MatchQuery, embeddings) -> list:
    """Each embedding as the data edges (arcs) it maps the pattern's to:
    the occurrence a configuration's restrictions pick one embedding of."""
    pattern = query.pattern
    if query.mode == "directed":
        return [frozenset((e[a], e[b]) for a, b in pattern.arcs) for e in embeddings]
    if query.mode == "labeled":
        pattern = pattern.pattern
    return [frozenset(frozenset((e[a], e[b])) for a, b in pattern.edges) for e in embeddings]


@pytest.mark.parametrize("twin", sorted(TWINS))
@pytest.mark.parametrize("mode,name", CASES, ids=[f"{m}.{n}" for m, n in CASES])
def test_mirror_counts_and_enumerates_alike(twin, mode, name):
    graph = TWINS[twin][mode]
    query = _query(mode, name)
    report = plan_query(query, graph)
    chosen = report.chosen.config
    counts, found = set(), []
    for config in (chosen, mirror(chosen)):
        count_plan, list_plan = _plans(report, mode, config)
        for backend in (
            get_backend("vectorised"),
            get_backend("interpreter"),
            get_backend("parallel", n_workers=2),
        ):
            counts.add(backend.count(MatchContext(graph, count_plan, count_plan.mode)))
        for backend in (get_backend("vectorised"), get_backend("interpreter")):
            ctx = MatchContext(graph, list_plan, list_plan.mode)
            found.append(_occurrences(query, backend.enumerate_embeddings(ctx)))
    assert len(counts) == 1, counts
    (count,) = counts
    for occurrences in found:
        assert len(occurrences) == len(set(occurrences)) == count
        assert set(occurrences) == set(found[0])


@pytest.mark.parametrize("name", ["P1", "P4"])
def test_winner_on_reversed_twin_is_the_mirror(name):
    """The winners — the configurations tied at the cheapest price that
    are cheapest by degree order too — on the twin are the mirrors of
    the winners on the original, at the same prices; each graph then
    breaks what is left of the tie by input order."""
    query = _query("plain", name)
    ordered = plan_query(query, TWINS["ordered"]["plain"])
    reversed_ = plan_query(query, TWINS["reversed"]["plain"])
    assert ordered.stats.degree_order_exponent > 0
    assert reversed_.stats.degree_order_exponent == -ordered.stats.degree_order_exponent

    def winners(report):
        head = report.ranking[: report.n_tied]
        costs = {r.config: degree_order_cost(r.plan, report.stats) for r in head}
        return {c for c, cost in costs.items() if cost == min(costs.values())}

    assert ordered.n_tied > 1
    assert winners(reversed_) == {mirror(c) for c in winners(ordered)}
    assert reversed_.chosen.config in winners(reversed_)
    assert ordered.chosen.config in winners(ordered)
    assert reversed_.predicted_cost == ordered.predicted_cost

"""Clique counting — the classic special case (paper's 7-clique example).

A k-clique has the maximal automorphism group (k!), making it the
worst case for naive matchers (each clique found 5 040 times for k = 7)
and the cleanest demonstration of restriction-based elimination: the
complete restriction chain ``id(v_0) > id(v_1) > … > id(v_{k-1})``
turns the search into ordered enumeration.

``clique_count`` uses the general GraphPi pipeline; ``clique_count_ordered``
is the hand-specialised ordered enumeration (they must agree — a test
asserts it), used to sanity-check the general machinery's overhead.
"""

from __future__ import annotations

import numpy as np

from repro.core.query import MatchQuery
from repro.core.session import get_session
from repro.graph.csr import Graph
from repro.graph.intersection import bounded_slice, intersect
from repro.pattern.catalog import clique


def clique_count(graph: Graph, k: int, *, use_iep: bool | None = None, backend=None) -> int:
    """Count k-cliques via the full GraphPi pipeline.

    ``backend`` picks the execution backend from the registry
    (the vectorised frontier engine by default; ``"parallel"`` fans the ordered
    enumeration out over worker processes).  Queries go through the
    graph's shared session, so repeated clique counts replay the
    cached plan.
    """
    if k < 2:
        raise ValueError("cliques need k >= 2")
    if k == 2:
        return graph.n_edges
    query = MatchQuery(pattern=clique(k), use_iep=use_iep, backend=backend)
    return get_session(graph).count(query).count


def clique_count_ordered(graph: Graph, k: int) -> int:
    """Hand-written ordered k-clique enumeration (reference).

    Classic descending-id DFS: each clique is visited exactly once with
    its vertices in decreasing id order — the same effect GraphPi's
    restriction chain achieves mechanically.
    """
    if k < 2:
        raise ValueError("cliques need k >= 2")
    if k == 2:
        return graph.n_edges

    def rec(cands: np.ndarray, depth: int) -> int:
        if depth == k - 1:
            return len(cands)
        total = 0
        for v in cands:
            vi = int(v)
            # Only neighbours with smaller id keep the descending order.
            nxt = intersect(bounded_slice(graph.neighbors(vi), None, vi), cands)
            if len(nxt) >= k - depth - 2:
                total += rec(nxt, depth + 1)
        return total

    total = 0
    for v in range(graph.n_vertices):
        smaller = bounded_slice(graph.neighbors(v), None, v)
        total += rec(smaller, 1)
    return total


def max_clique_lower_bound(graph: Graph, limit: int = 12) -> int:
    """Largest k ≤ limit with at least one k-clique (greedy + exact count).

    Useful for sizing clique-counting workloads in the examples.
    """
    k = 2
    while k < limit and clique_count(graph, k + 1) > 0:
        k += 1
    return k

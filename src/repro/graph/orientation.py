"""Vertex orderings: making asymmetric restrictions data-aware.

GraphPi's restrictions compare *vertex ids* (§IV-A): ``id(A) > id(B)``
prunes the sorted candidate stream by a binary-searched bound.  How much
work a restriction saves therefore depends on how ids correlate with
degree — a fact the paper leaves implicit (its SNAP inputs arrive with
essentially arbitrary ids).  This module makes the knob explicit:

* :func:`degree_order` / :func:`relabel_by_degree` — ids ascend with
  degree, so a ``<``-bound (the common shape in clique restriction
  sets) slices away the high-degree tail of every candidate set.  This
  is the classic *orientation* trick: counting each clique from its
  lowest-degree vertex.
* :func:`degeneracy_order` / :func:`relabel_by_degeneracy` — the k-core
  peeling order; bounds every vertex's number of higher-ordered
  neighbours by the graph's degeneracy (much smaller than the max
  degree on real graphs), the strongest classical guarantee for this
  family of algorithms.

Identity, degree and degeneracy orderings differ only in the
relabelling — plan and engine are identical, so counts are unchanged.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import Graph
from repro.graph.intersection import VERTEX_DTYPE


def degree_order(graph: Graph) -> np.ndarray:
    """Vertices sorted by (degree, id) ascending.

    Returns ``order`` with ``order[k]`` = the vertex placed at rank k.
    """
    degrees = graph.degrees.astype(np.int64)
    return np.lexsort((np.arange(graph.n_vertices), degrees)).astype(VERTEX_DTYPE)


def degeneracy_order(graph: Graph) -> tuple[np.ndarray, int]:
    """Smallest-last (k-core peeling) order and the degeneracy.

    Repeatedly removes a minimum-degree vertex; the largest degree seen
    at removal time is the graph's degeneracy d, and every vertex has at
    most d neighbours placed *after* it in the returned order.
    """
    n = graph.n_vertices
    deg = graph.degrees.astype(np.int64).copy()
    removed = np.zeros(n, dtype=bool)
    heap = [(int(deg[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order = np.empty(n, dtype=VERTEX_DTYPE)
    degeneracy = 0
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue  # stale heap entry
        removed[v] = True
        degeneracy = max(degeneracy, int(d))
        order[k] = v
        k += 1
        for u in graph.neighbors(v):
            ui = int(u)
            if not removed[ui]:
                deg[ui] -= 1
                heapq.heappush(heap, (int(deg[ui]), ui))
    assert k == n
    return order, degeneracy


def apply_order(graph: Graph, order: np.ndarray, name: str = "") -> tuple[Graph, np.ndarray]:
    """Relabel so that ``order[k]`` becomes vertex ``k``.

    Returns ``(relabeled_graph, perm)`` with ``perm[old] = new``;
    embeddings found in the relabeled graph map back through
    ``order[new] = old``.
    """
    n = graph.n_vertices
    order = np.asarray(order, dtype=VERTEX_DTYPE)
    if sorted(order.tolist()) != list(range(n)):
        raise ValueError("order must be a permutation of the vertices")
    perm = np.empty(n, dtype=VERTEX_DTYPE)
    perm[order] = np.arange(n, dtype=VERTEX_DTYPE)
    # new adjacency: vertex k's row is old vertex order[k]'s row, mapped
    counts = np.diff(graph.indptr)[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(len(graph.indices), dtype=VERTEX_DTYPE)
    for k in range(n):
        row = perm[graph.neighbors(int(order[k]))]
        row.sort()
        indices[indptr[k] : indptr[k + 1]] = row
    return Graph(indptr, indices, name=name or graph.name), perm


def relabel_by_degree(graph: Graph) -> tuple[Graph, np.ndarray]:
    """Relabel so ids ascend with degree; returns (graph, perm[old]=new)."""
    return apply_order(graph, degree_order(graph), name=graph.name)


def relabel_by_degeneracy(graph: Graph) -> tuple[Graph, np.ndarray]:
    """Relabel by the smallest-last order; returns (graph, perm[old]=new)."""
    order, _ = degeneracy_order(graph)
    return apply_order(graph, order, name=graph.name)


def oriented_out_degrees(graph: Graph, order: np.ndarray) -> np.ndarray:
    """Per-vertex count of neighbours placed later in ``order``.

    The quantity the degeneracy guarantee bounds: with a degeneracy
    order this never exceeds the degeneracy.
    """
    n = graph.n_vertices
    rank = np.empty(n, dtype=np.int64)
    rank[np.asarray(order, dtype=np.int64)] = np.arange(n)
    out = np.zeros(n, dtype=np.int64)
    for v in range(n):
        out[v] = int((rank[graph.neighbors(v)] > rank[v]).sum())
    return out

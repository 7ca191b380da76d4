"""Structural graph statistics feeding the performance model.

GraphPi's cost model (§IV-C) needs exactly three numbers from the data
graph: |V|, |E| and the triangle count, from which it derives

* ``p1`` — probability that a random vertex pair is adjacent, and
* ``p2`` — probability that two random neighbours of a vertex are
  adjacent (i.e. that a wedge closes).

The model here adds one more: how vertex ids order degrees.  Summed over
the edges, the degree of each edge's higher-id endpoint and of its
lower-id endpoint (``upper_degree_sum``, ``lower_degree_sum``).  A
restriction ``id(a) > id(b)`` over a pattern edge picks the higher-id
endpoint of a data edge, so on a graph whose ids ascend with degree it
picks the longer row.  :attr:`GraphStats.degree_order_exponent` fits one
exponent to the two sums (see there); with ids uncorrelated with degree
it is about 0 and the model is the paper's.

``tri_cnt`` in the paper's formulas is the number of *triangle
embeddings* (ordered, as an unrestricted matcher would count them), i.e.
6x the number of distinct triangles; ``GraphStats`` stores the distinct
count and exposes the paper's quantities as properties.

Triangle counting orients every edge by (degree, id) rank and probes
each oriented wedge for its closing edge with bulk ``searchsorted``
membership tests against the CSR's sorted edge keys — numpy only, the
same code in every environment.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import Graph
from repro.graph.intersection import (
    bulk_contains_sorted,
    gather_ranges,
    intersect_count,
    sorted_edge_keys,
)

#: oriented wedges probed per bulk membership call: bounds the wedge
#: arrays to a few tens of MB however many wedges the graph has.
_WEDGE_CHUNK = 1 << 20


def triangle_count(graph: Graph) -> int:
    """Number of distinct triangles (unordered vertex triples)."""
    return _oriented_pass(graph)[0]


def _oriented_pass(graph: Graph) -> tuple[int, int, int]:
    """``(triangles, upper_degree_sum, lower_degree_sum)`` in one pass.

    Every edge is oriented from lower to higher (degree, id) rank, so each
    triangle closes exactly one oriented wedge — a pair of out-neighbours
    of its lowest-ranked vertex — and a hub's quadratic fan of unoriented
    wedges (a 20 000-leaf star: 2e8 pairs) never materialises.  Wedges are
    formed in chunks of about ``_WEDGE_CHUNK`` and each chunk's closing
    edges are checked with one :func:`bulk_contains_sorted` probe of the
    CSR's naturally sorted ``u * n + v`` keys (no sort of the graph).
    The degree sums read the same per-entry source ids: over the CSR
    entries ``u -> v`` with ``u < v`` (each edge once), the degree of
    ``v``, and the rest of Σ deg².
    """
    if graph.n_edges == 0:
        return 0, 0, 0
    n, degrees, indices = graph.n_vertices, graph.degrees, graph.indices
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(degrees, kind="stable")] = np.arange(n)
    src = np.repeat(np.arange(n), degrees)
    wide = degrees.astype(np.int64)
    # each edge once, as its entry in the lower-id endpoint's row; the
    # two endpoints' degrees sum to Σ deg² over all edges
    upper = int(np.dot(src < indices, wide[indices]))
    lower = int(np.dot(wide, wide)) - upper
    keep = rank[src] < rank[indices]
    # Out-rows keep the CSR's ascending id order, so a wedge (v, w) taken
    # from an out-row has v < w and its key v * n + w is a CSR key.
    out, out_src = indices[keep], src[keep]
    out_deg = np.bincount(out_src, minlength=n)
    row_end = np.cumsum(out_deg)[out_src]
    # Entry i pairs with the entries after it in its out-row.
    later = row_end - np.arange(len(out)) - 1
    wedge_end = np.cumsum(later)
    keys = sorted_edge_keys(graph.indptr, indices)
    total, lo = 0, 0
    while lo < len(out):
        budget = wedge_end[lo] - later[lo] + _WEDGE_CHUNK
        hi = max(lo + 1, int(np.searchsorted(wedge_end, budget, side="right")))
        owner, second = gather_ranges(out, np.arange(lo + 1, hi + 1), later[lo:hi])
        # Sorted probes let ``searchsorted`` start each search from the
        # previous hit: ~4x faster once the keys outgrow the CPU caches.
        probes = np.sort(out[lo + owner] * n + second)
        total += int(np.count_nonzero(bulk_contains_sorted(keys, probes)))
        lo = hi
    return total, upper, lower


def _triangle_count_merge(graph: Graph) -> int:
    """Reference per-edge intersection counter (3x per triangle).

    The test oracle for :func:`triangle_count`.
    """
    total = 0
    for u in range(graph.n_vertices):
        nu = graph.neighbors(u)
        for v in nu[nu > u]:
            total += intersect_count(nu, graph.neighbors(int(v)))
    # Each triangle {a,b,c} is counted once per edge with u < v: 3 times.
    return total // 3


def wedge_count(graph: Graph) -> int:
    """Number of wedges (paths of length 2, centre-distinct)."""
    d = graph.degrees.astype(np.int64)
    return int((d * (d - 1) // 2).sum())


def global_clustering(graph: Graph) -> float:
    """Transitivity: 3 * triangles / wedges."""
    wedges = wedge_count(graph)
    if wedges == 0:
        return 0.0
    return 3.0 * triangle_count(graph) / wedges


def degree_histogram(graph: Graph) -> np.ndarray:
    """hist[d] = number of vertices with degree d."""
    return np.bincount(graph.degrees.astype(np.int64), minlength=1)


@dataclass(frozen=True)
class DegreeStats:
    """Degree-only statistics: the cheap subset of :class:`GraphStats`.

    The frontier engine's auxiliary-pruning cost gate runs *inside*
    execution, where paying the triangle count behind :class:`GraphStats`
    per engine build would defeat the optimisation.  This summary is
    O(1) from the CSR header and approximates the paper's estimator
    with the independence proxy ``p2 ≈ p1`` — a deliberate
    *underestimate* of intersection sizes on clustered graphs, which
    only makes the gate more conservative about materialising.
    """

    n_vertices: int
    n_edges: int

    @classmethod
    def of(cls, graph: Graph) -> "DegreeStats":
        return cls(n_vertices=graph.n_vertices, n_edges=graph.n_edges)

    @property
    def avg_degree(self) -> float:
        return 2.0 * self.n_edges / self.n_vertices if self.n_vertices else 0.0

    @property
    def p1(self) -> float:
        """P((a,b) ∈ E | a, b ∈ V) = 2|E| / |V|^2."""
        if self.n_vertices == 0:
            return 0.0
        return 2.0 * self.n_edges / float(self.n_vertices) ** 2

    def expected_pool_size(self, n_neighborhoods: int) -> float:
        """E[|∩ of n neighbourhoods|] under the ``p2 ≈ p1`` proxy.

        ``n = 1`` gives the average degree; each further neighbourhood
        multiplies by ``p1`` (vs. the full model's ``p2``).
        """
        if n_neighborhoods < 0:
            raise ValueError("n_neighborhoods must be >= 0")
        if n_neighborhoods == 0:
            return float(self.n_vertices)
        return float(self.n_vertices) * self.p1**n_neighborhoods


def degree_statistics(graph: Graph) -> DegreeStats:
    """The degree-only summary feeding runtime cost gates."""
    return DegreeStats.of(graph)


#: data derived from one graph (known statistics, sorted edge keys, a
#: digraph's undirected view), one map per graph keyed by its identity;
#: an entry dies with its graph.  Identity, not graph equality: graph
#: hashes read only a prefix of the neighbour ids, so equal-prefix
#: snapshots would collide and every lookup would compare whole arrays,
#: and an equal graph built elsewhere must still be counted afresh
#: (tests use that as an oracle).
_MEMOS: "dict[int, dict[str, object]]" = {}


def graph_memo(graph) -> "dict[str, object]":
    """The derived-data map of a live graph (any immutable graph kind),
    created empty on first use and dropped when the graph dies."""
    memo = _MEMOS.get(id(graph))
    if memo is None:
        fresh: "dict[str, object]" = {}
        # setdefault is atomic: racing threads agree on one map
        memo = _MEMOS.setdefault(id(graph), fresh)
        if memo is fresh:
            # runs when the graph dies, before its id can be reused
            weakref.finalize(graph, _MEMOS.pop, id(graph), None)
    return memo


@dataclass(frozen=True)
class GraphStats:
    """The structural summary consumed by the performance model.

    ``upper_degree_sum`` and ``lower_degree_sum`` sum, over the edges,
    the degree of the higher-id and of the lower-id endpoint (see the
    module docstring).
    """

    n_vertices: int
    n_edges: int
    triangles: int
    max_degree: int
    upper_degree_sum: int
    lower_degree_sum: int

    @classmethod
    def of(cls, graph: Graph) -> "GraphStats":
        known = _MEMOS.get(id(graph), {}).get("stats")
        if known is not None:
            return known
        triangles, upper, lower = _oriented_pass(graph)
        return cls(
            n_vertices=graph.n_vertices,
            n_edges=graph.n_edges,
            triangles=triangles,
            max_degree=graph.max_degree,
            upper_degree_sum=upper,
            lower_degree_sum=lower,
        )

    def remember(self, graph: Graph) -> None:
        """Make these the statistics :meth:`of` returns for ``graph``
        (the caller vouches that they are exact for it).
        ``DynamicGraph.snapshot()`` registers the counters it maintains
        incrementally, so a snapshot's first session never counts
        triangles."""
        graph_memo(graph)["stats"] = self

    # -- quantities exactly as defined in §IV-C --------------------------
    @property
    def tri_cnt(self) -> int:
        """Triangle *embeddings* (6 per distinct triangle), the paper's tri_cnt."""
        return 6 * self.triangles

    @property
    def avg_degree(self) -> float:
        return 2.0 * self.n_edges / self.n_vertices if self.n_vertices else 0.0

    @property
    def p1(self) -> float:
        """P((a,b) ∈ E | a, b ∈ V) = 2|E| / |V|^2."""
        if self.n_vertices == 0:
            return 0.0
        return 2.0 * self.n_edges / float(self.n_vertices) ** 2

    @property
    def p2(self) -> float:
        """P((a,b) ∈ E | c ∈ V, a, b ∈ N(c)) = tri_cnt * |V| / (2|E|)^2."""
        if self.n_edges == 0:
            return 0.0
        return self.tri_cnt * float(self.n_vertices) / (2.0 * self.n_edges) ** 2

    def expected_candidate_size(self, n_neighborhoods: int) -> float:
        """E[|∩ of n neighbourhoods|] = |V| * p1 * p2^(n-1); |V| for n = 0.

        This is the paper's cardinality estimator, used for both loop
        sizes (l_i) and intersection costs (c_i).
        """
        if n_neighborhoods < 0:
            raise ValueError("n_neighborhoods must be >= 0")
        if n_neighborhoods == 0:
            return float(self.n_vertices)
        return float(self.n_vertices) * self.p1 * self.p2 ** (n_neighborhoods - 1)

    @property
    def degree_order_exponent(self) -> float:
        """γ with degree ∝ u^|γ| along the id order, ``u`` an edge
        endpoint's quantile among all endpoints sorted by ascending id
        (γ ≥ 0) or by descending id (γ < 0).

        Under that law the higher-id endpoint of an edge (the larger of
        two endpoint quantiles) has mean degree 2(1+γ)/(2+γ) times the
        endpoint mean and the lower-id one 2/(2+γ) times, for γ ≥ 0:
        their ratio is 1+γ, so γ = upper/lower - 1, and by the same
        argument on the reversed order γ = -(lower/upper - 1) when the
        lower-id endpoints have the larger sum.  Reversing the ids
        negates γ exactly.  It is 0 when ids do not follow degree.
        """
        up, low = self.upper_degree_sum, self.lower_degree_sum
        if min(up, low) == 0:
            return 0.0
        if up >= low:
            return (up - low) / low
        return -((low - up) / up)

    def describe(self) -> str:
        e = self.n_edges or 1
        return (
            f"|V|={self.n_vertices} |E|={self.n_edges} triangles={self.triangles} "
            f"avg_deg={self.avg_degree:.2f} max_deg={self.max_degree} "
            f"p1={self.p1:.3e} p2={self.p2:.3e} "
            f"endpoint_deg(higher/lower id)={self.upper_degree_sum / e:.2f}/"
            f"{self.lower_degree_sum / e:.2f}"
        )

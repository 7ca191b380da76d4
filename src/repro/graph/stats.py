"""Structural graph statistics feeding the performance model.

GraphPi's cost model (§IV-C) needs exactly three numbers from the data
graph: |V|, |E| and the triangle count, from which it derives

* ``p1`` — probability that a random vertex pair is adjacent, and
* ``p2`` — probability that two random neighbours of a vertex are
  adjacent (i.e. that a wedge closes).

``tri_cnt`` in the paper's formulas is the number of *triangle
embeddings* (ordered, as an unrestricted matcher would count them), i.e.
6x the number of distinct triangles; ``GraphStats`` stores the distinct
count and exposes the paper's quantities as properties.

Triangle counting uses ``U @ U ∘ U`` over ``scipy.sparse`` when available
(``U`` the degree-oriented adjacency; fast, vectorised, no hub blow-up)
and falls back to per-edge sorted intersections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import Graph
from repro.graph.intersection import intersect_count

try:  # scipy is an optional accelerator, not a hard dependency
    import scipy.sparse as _sp
except Exception:  # pragma: no cover - scipy is present in the test env
    _sp = None


def triangle_count(graph: Graph) -> int:
    """Number of distinct triangles (unordered vertex triples)."""
    if graph.n_edges == 0:
        return 0
    if _sp is not None:
        # Orient every edge from lower to higher (degree, id) rank: each
        # triangle then closes exactly one oriented 2-path, and a hub's
        # quadratic wedge fan (a 20 000-leaf star: 4e8 entries in the
        # unoriented ``A @ A``) never materialises.
        n, degrees = graph.n_vertices, graph.degrees
        rank = np.empty(n, dtype=np.int64)
        rank[np.argsort(degrees, kind="stable")] = np.arange(n)
        src = np.repeat(np.arange(n), degrees)
        keep = rank[src] < rank[graph.indices]
        up = _sp.csr_matrix(
            (np.ones(int(keep.sum()), dtype=np.int64), (src[keep], graph.indices[keep])),
            shape=(n, n),
        )
        return int((up @ up).multiply(up).sum())
    return _triangle_count_merge(graph)


def _triangle_count_merge(graph: Graph) -> int:
    """Reference per-edge intersection counter (3x per triangle)."""
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


@dataclass(frozen=True)
class GraphStats:
    """The structural summary consumed by the performance model."""

    n_vertices: int
    n_edges: int
    triangles: int
    max_degree: int

    @classmethod
    def of(cls, graph: Graph) -> "GraphStats":
        return cls(
            n_vertices=graph.n_vertices,
            n_edges=graph.n_edges,
            triangles=triangle_count(graph),
            max_degree=graph.max_degree,
        )

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

    def describe(self) -> str:
        return (
            f"|V|={self.n_vertices} |E|={self.n_edges} triangles={self.triangles} "
            f"avg_deg={self.avg_degree:.2f} max_deg={self.max_degree} "
            f"p1={self.p1:.3e} p2={self.p2:.3e}"
        )

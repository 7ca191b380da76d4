"""Edge-list → CSR construction pipeline.

Real-world edge lists (e.g. SNAP dumps, which the paper's Table I graphs
come from) are messy: directed duplicates, self-loops, non-contiguous
vertex ids.  ``GraphBuilder`` normalises all of that into the strict CSR
invariants that :class:`repro.graph.csr.Graph` enforces:

* undirected (each edge stored both ways),
* no self-loops,
* no duplicate edges,
* vertex ids compacted to ``0 .. n-1`` (optionally preserving the
  original ids in ``vertex_labels``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.graph.csr import Graph
from repro.graph.intersection import VERTEX_DTYPE


@dataclass
class GraphBuilder:
    """Incremental, deduplicating graph builder.

    >>> b = GraphBuilder()
    >>> b.add_edge(0, 1); b.add_edge(1, 2); b.add_edge(0, 1)  # dup ignored later
    >>> g = b.build()
    >>> (g.n_vertices, g.n_edges)
    (3, 2)
    """

    compact_ids: bool = True
    name: str = ""
    _sources: list[int] = field(default_factory=list)
    _targets: list[int] = field(default_factory=list)

    def add_edge(self, u: int, v: int) -> None:
        self._sources.append(int(u))
        self._targets.append(int(v))

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> None:
        for u, v in edges:
            self.add_edge(u, v)

    @property
    def n_raw_edges(self) -> int:
        return len(self._sources)

    def build(self) -> Graph:
        src = np.asarray(self._sources, dtype=VERTEX_DTYPE)
        dst = np.asarray(self._targets, dtype=VERTEX_DTYPE)
        graph, _labels = build_graph_arrays(src, dst, compact_ids=self.compact_ids, name=self.name)
        return graph

    def build_with_labels(self) -> tuple[Graph, np.ndarray]:
        src = np.asarray(self._sources, dtype=VERTEX_DTYPE)
        dst = np.asarray(self._targets, dtype=VERTEX_DTYPE)
        return build_graph_arrays(src, dst, compact_ids=self.compact_ids, name=self.name)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` without its ``numpy.ma`` import.

    A flag-free ``np.unique`` imports ``numpy.ma`` on first call (numpy
    2.x), about 15 ms of every cold ``repro`` command that loads a graph.
    """
    values = np.sort(values)
    if len(values) == 0:
        return values
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def build_graph_arrays(
    src: np.ndarray,
    dst: np.ndarray,
    *,
    compact_ids: bool = True,
    name: str = "",
) -> tuple[Graph, np.ndarray]:
    """Vectorised CSR construction from parallel source/target arrays.

    Returns ``(graph, vertex_labels)`` where ``vertex_labels[i]`` is the
    original id of compacted vertex ``i`` (identity when
    ``compact_ids=False``).
    """
    src = np.asarray(src, dtype=VERTEX_DTYPE)
    dst = np.asarray(dst, dtype=VERTEX_DTYPE)
    if src.shape != dst.shape:
        raise ValueError("source and target arrays must have equal length")
    if len(src) and (src.min() < 0 or dst.min() < 0):
        raise ValueError("vertex ids must be non-negative")

    # Drop self-loops.
    keep = src != dst
    src, dst = src[keep], dst[keep]

    if compact_ids:
        labels = _sorted_unique(np.concatenate([src, dst]))
        src = np.searchsorted(labels, src)
        dst = np.searchsorted(labels, dst)
        n = len(labels)
    else:
        n = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1) if len(src) else 0
        labels = np.arange(n, dtype=VERTEX_DTYPE)

    # Canonicalise to (min, max) then dedup.
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    if len(lo):
        key = lo * np.int64(n) + hi
        _, first = np.unique(key, return_index=True)
        lo, hi = lo[first], hi[first]

    # Symmetrise and sort by (row, col) to get per-row sorted adjacency.
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Graph(indptr, cols.astype(VERTEX_DTYPE), name=name), labels


def graph_from_edges(edges: Iterable[tuple[int, int]], name: str = "") -> Graph:
    """Convenience one-shot constructor used pervasively in tests."""
    builder = GraphBuilder(name=name)
    builder.add_edges(edges)
    return builder.build()


def graph_from_adjacency_matrix(matrix: np.ndarray, name: str = "") -> Graph:
    """Build a graph from a dense symmetric 0/1 adjacency matrix."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if not np.array_equal(matrix, matrix.T):
        raise ValueError("adjacency matrix must be symmetric (undirected graph)")
    src, dst = np.nonzero(np.triu(matrix, k=1))
    builder = GraphBuilder(compact_ids=False, name=name)
    builder.add_edges(zip(src.tolist(), dst.tolist()))
    if len(src) == 0:
        # Graph with isolated vertices only.
        n = matrix.shape[0]
        return Graph(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=VERTEX_DTYPE), name=name)
    graph = builder.build()
    if graph.n_vertices < matrix.shape[0]:
        # Preserve isolated trailing vertices.
        n = matrix.shape[0]
        indptr = np.concatenate(
            [graph.indptr, np.full(n - graph.n_vertices, graph.indptr[-1], dtype=np.int64)]
        )
        graph = Graph(indptr, graph.indices, name=name)
    return graph

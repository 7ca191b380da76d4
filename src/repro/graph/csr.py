"""Compressed-sparse-row graph storage with sorted neighbour lists.

This mirrors GraphPi's data layout (§IV-E): *"GraphPi stores graphs in the
compressed sparse row (CSR) format, that is, the neighborhood of a vertex
is sorted and continuous in memory"*.  All matching kernels rely on the
sortedness invariant, which is validated at construction.

The graph is undirected and unlabeled (as in the paper); an undirected
edge {u, v} is stored in both adjacency rows.  Self-loops and duplicate
edges are rejected by the builder, not here — ``Graph`` trusts (and
verifies) its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.graph.intersection import VERTEX_DTYPE, contains


@dataclass(frozen=True)
class Graph:
    """An immutable undirected graph in CSR form.

    Attributes
    ----------
    indptr:
        ``int64[n_vertices + 1]`` — row offsets into ``indices``.
    indices:
        ``int64[2 * n_edges]`` — concatenated, per-row sorted neighbour
        lists.
    name:
        Optional human-readable dataset name (used in benchmark tables).
    """

    indptr: np.ndarray
    indices: np.ndarray
    name: str = ""

    def __post_init__(self):
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=VERTEX_DTYPE)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("malformed indptr: must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = len(indptr) - 1
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("neighbour index out of range")
        # Sortedness (strict) per row: within each row diffs must be > 0.
        if len(indices) > 1:
            diffs = np.diff(indices)
            row_starts = indptr[1:-1]
            # A diff position straddling a row boundary is exempt; empty
            # rows put their boundary at 0 or len(indices) — skip those.
            boundary = row_starts[(row_starts > 0) & (row_starts < len(indices))]
            interior = np.ones(len(diffs), dtype=bool)
            interior[boundary - 1] = False
            if np.any(diffs[interior] <= 0):
                raise ValueError("neighbour lists must be strictly increasing (sorted, no dups)")
        # A vertex adjacent to itself would break injectivity assumptions.
        if len(indices):
            row_ids = np.repeat(np.arange(n, dtype=VERTEX_DTYPE), np.diff(indptr))
            if np.any(row_ids == indices):
                v = int(row_ids[np.argmax(row_ids == indices)])
                raise ValueError(f"self-loop at vertex {v} is not allowed")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def max_degree(self) -> int:
        d = self.degrees
        return int(d.max()) if len(d) else 0

    @property
    def avg_degree(self) -> float:
        return 2.0 * self.n_edges / self.n_vertices if self.n_vertices else 0.0

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour array of ``v`` (a view — do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
            return False
        # Search the smaller adjacency row.
        if self.degree(u) > self.degree(v):
            u, v = v, u
        return contains(self.neighbors(u), v)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges as (u, v) with u < v."""
        for u in range(self.n_vertices):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, int(v))

    def vertices(self) -> np.ndarray:
        return np.arange(self.n_vertices, dtype=VERTEX_DTYPE)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def subgraph(self, keep: np.ndarray) -> "Graph":
        """Vertex-induced subgraph, relabelled to 0..len(keep)-1.

        ``keep`` is an array of original vertex ids; the returned graph's
        vertex ``i`` corresponds to ``keep_sorted[i]``.
        """
        keep = np.unique(np.asarray(keep, dtype=VERTEX_DTYPE))
        remap = -np.ones(self.n_vertices, dtype=VERTEX_DTYPE)
        remap[keep] = np.arange(len(keep), dtype=VERTEX_DTYPE)
        rows: list[np.ndarray] = []
        indptr = np.zeros(len(keep) + 1, dtype=np.int64)
        for new_id, old_id in enumerate(keep):
            nbrs = self.neighbors(int(old_id))
            mapped = remap[nbrs]
            mapped = mapped[mapped >= 0]
            mapped.sort()
            rows.append(mapped)
            indptr[new_id + 1] = indptr[new_id] + len(mapped)
        indices = np.concatenate(rows) if rows else np.empty(0, dtype=VERTEX_DTYPE)
        return Graph(indptr, indices, name=f"{self.name}#sub" if self.name else "")

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"Graph({self.n_vertices} vertices, {self.n_edges} edges{label})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        )

    def __hash__(self) -> int:
        return hash((self.n_vertices, len(self.indices), self.indices[:16].tobytes()))

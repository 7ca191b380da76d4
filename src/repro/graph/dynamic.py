"""Mutable graphs with incrementally-maintained model statistics.

The paper assumes an immutable data graph so that the triangle count
feeding its cardinality estimator is a constant — and adds (§IV-C):
*"Even if the graph is mutable, it is trivial to calculate tri_cnt
incrementally."*  This module makes that sentence concrete:

* :class:`DynamicGraph` — adjacency-set storage with ``add_edge`` /
  ``remove_edge`` / ``add_vertex``, maintaining |E|, the triangle count,
  the max degree and the edges' endpoint degree sums by id order
  incrementally (O(min-degree) per edge update for triangles, O(1)
  amortised for the rest, with max-degree recomputed lazily after
  deletions that lower the previous maximum);
* ``snapshot()`` — freeze into the immutable CSR :class:`Graph` the
  matching engine requires, memoised per mutation :attr:`version` so a
  quiescent graph never pays the O(|V|+|E|) rebuild twice (and the
  session registry keyed by object identity keeps hitting its plan
  cache);
* ``stats()`` — a :class:`GraphStats` built from the incremental
  counters in O(1), so replanning after a batch of updates never
  rescans the graph.  ``snapshot()`` registers them for the graph it
  returns, so ``GraphStats.of(snapshot)`` (what a session on the
  snapshot ranks with) reads them instead of counting triangles.

The intended workflow (exercised by the streaming example): mutate,
call ``stats()`` to re-rank configurations cheaply, ``snapshot()`` when
you actually need to match.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.graph.csr import Graph
from repro.graph.intersection import VERTEX_DTYPE
from repro.graph.stats import GraphStats


class DynamicGraph:
    """An undirected multigraph-free mutable graph.

    Vertices are 0..n-1; ``add_vertex`` extends the range.  Self-loops
    and duplicate edges are rejected (matching the CSR invariants), and
    removing a missing edge raises ``KeyError`` — silent idempotent
    updates would let the incremental counters drift.
    """

    def __init__(self, n_vertices: int = 0, edges: Iterable[tuple[int, int]] = ()):
        if n_vertices < 0:
            raise ValueError("n_vertices must be non-negative")
        self._adj: list[set[int]] = [set() for _ in range(n_vertices)]
        self._n_edges = 0
        self._triangles = 0
        #: per vertex, how many neighbours have a smaller id; with the
        #: degrees it moves the endpoint degree sums in O(1) per update
        self._below: list[int] = [0] * n_vertices
        self._upper_degree_sum = 0
        self._lower_degree_sum = 0
        self._version = 0
        self._snapshot_cache: tuple[int, str, Graph] | None = None
        # max degree is maintained as an upper bound; recomputed lazily
        # when a deletion might have lowered the true maximum.
        self._max_degree = 0
        self._max_degree_valid = True
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # size accessors
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    @property
    def triangles(self) -> int:
        """Distinct triangle count, maintained incrementally."""
        return self._triangles

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every successful structural change.

        Rejected updates (duplicate edge, self-loop, missing deletion)
        leave it untouched, so equal versions guarantee an identical
        graph — the invariant the memoised :meth:`snapshot` and the
        streaming adjacency caches rely on.
        """
        return self._version

    @property
    def max_degree(self) -> int:
        if not self._max_degree_valid:
            self._max_degree = max((len(a) for a in self._adj), default=0)
            self._max_degree_valid = True
        return self._max_degree

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def neighbors(self, v: int) -> set[int]:
        """A *copy* of v's neighbour set (mutating it cannot corrupt us)."""
        self._check_vertex(v)
        return set(self._adj[v])

    def neighbors_view(self, v: int) -> set[int]:
        """v's live neighbour set, no copy — callers must not mutate it.

        The streaming delta executor intersects neighbourhoods on every
        update; copying each set per probe (what :meth:`neighbors` does
        for safety) would dominate its cost.  Treat the result as
        read-only and do not hold it across mutations.
        """
        self._check_vertex(v)
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def edges(self) -> Iterable[tuple[int, int]]:
        for u in range(self.n_vertices):
            for v in self._adj[u]:
                if u < v:
                    yield u, v

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _mutated(self) -> None:
        """Record a successful structural change (called *after* it)."""
        self._version += 1
        self._snapshot_cache = None

    def add_vertex(self) -> int:
        """Append an isolated vertex; returns its id."""
        self._adj.append(set())
        self._below.append(0)
        self._mutated()
        return len(self._adj) - 1

    def add_edge(self, u: int, v: int) -> int:
        """Insert edge {u, v}; returns the number of new triangles closed.

        The triangle delta is |N(u) ∩ N(v)| *before* insertion — every
        common neighbour closes exactly one new triangle.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop ({u},{u}) not allowed")
        if v in self._adj[u]:
            raise KeyError(f"edge ({u},{v}) already present")
        a, b = self._adj[u], self._adj[v]
        small, large = (a, b) if len(a) <= len(b) else (b, a)
        closed = sum(1 for w in small if w in large)
        self._move_degree_sums(min(u, v), max(u, v), +1)
        a.add(v)
        b.add(u)
        self._below[max(u, v)] += 1
        self._n_edges += 1
        self._triangles += closed
        new_deg = max(len(a), len(b))
        if new_deg > self._max_degree:
            self._max_degree = new_deg
        self._mutated()
        return closed

    def remove_edge(self, u: int, v: int) -> int:
        """Delete edge {u, v}; returns the number of triangles opened."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            raise KeyError(f"edge ({u},{v}) not present")
        a, b = self._adj[u], self._adj[v]
        a.discard(v)
        b.discard(u)
        self._below[max(u, v)] -= 1
        self._move_degree_sums(min(u, v), max(u, v), -1)
        small, large = (a, b) if len(a) <= len(b) else (b, a)
        opened = sum(1 for w in small if w in large)
        self._n_edges -= 1
        self._triangles -= opened
        if self._max_degree_valid and len(a) + 1 == self._max_degree:
            # the previous maximum may have been this endpoint
            self._max_degree_valid = False
        if self._max_degree_valid and len(b) + 1 == self._max_degree:
            self._max_degree_valid = False
        self._mutated()
        return opened

    def _move_degree_sums(self, low: int, high: int, sign: int) -> None:
        """Add (``sign`` = 1) or take away (-1) edge ``{low, high}``,
        ``low < high``, from the endpoint degree sums, read while the
        graph lacks it: the edge itself contributes both endpoints' new
        degrees, and each endpoint's other edges gain one on the side
        that endpoint is on."""
        d_low, d_high = len(self._adj[low]), len(self._adj[high])
        b_low, b_high = self._below[low], self._below[high]
        self._upper_degree_sum += sign * (d_high + 1 + b_low + b_high)
        self._lower_degree_sum += sign * (d_low + 1 + (d_low - b_low) + (d_high - b_high))

    # ------------------------------------------------------------------
    # freezing
    # ------------------------------------------------------------------
    def snapshot(self, name: str = "") -> Graph:
        """Freeze into the immutable CSR graph the engine consumes.

        Memoised on :attr:`version`: repeated calls with no intervening
        mutation return the *same* :class:`Graph` object, so downstream
        identity-keyed caches (the per-graph session registry and its
        plan cache) keep hitting.  Any successful mutation invalidates
        the memo; a different ``name`` rebuilds it.  The snapshot's
        :class:`GraphStats` come from the incremental counters.
        """
        cached = self._snapshot_cache
        if cached is not None and cached[0] == self._version and cached[1] == name:
            return cached[2]
        n = self.n_vertices
        indptr = np.zeros(n + 1, dtype=np.int64)
        for v in range(n):
            indptr[v + 1] = indptr[v] + len(self._adj[v])
        indices = np.empty(indptr[-1], dtype=VERTEX_DTYPE)
        for v in range(n):
            row = sorted(self._adj[v])
            indices[indptr[v] : indptr[v + 1]] = row
        graph = Graph(indptr, indices, name=name)
        self.stats().remember(graph)
        self._snapshot_cache = (self._version, name, graph)
        return graph

    def stats(self) -> GraphStats:
        """O(1) statistics from the incremental counters.

        Identical to ``GraphStats.of(self.snapshot())`` (pinned by the
        property tests) without touching the adjacency structure.
        """
        return GraphStats(
            n_vertices=self.n_vertices,
            n_edges=self._n_edges,
            triangles=self._triangles,
            max_degree=self.max_degree,
            upper_degree_sum=self._upper_degree_sum,
            lower_degree_sum=self._lower_degree_sum,
        )

    @classmethod
    def from_graph(cls, graph: Graph) -> "DynamicGraph":
        """Thaw an immutable CSR graph."""
        dyn = cls(graph.n_vertices)
        for u in range(graph.n_vertices):
            for v in graph.neighbors(u):
                if u < int(v):
                    dyn.add_edge(u, int(v))
        return dyn

    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._adj):
            raise IndexError(f"vertex {v} out of range [0, {len(self._adj)})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph({self.n_vertices} vertices, {self._n_edges} edges, "
            f"{self._triangles} triangles)"
        )

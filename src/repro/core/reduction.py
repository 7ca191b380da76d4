"""Skeleton-sharing reduction for batched directed queries (XMiner).

XMiner's observation: many directed patterns are orientations of the
same undirected *skeleton*, so a batch of directed counting queries can
share one enumeration of that skeleton and diverge only in a cheap
per-embedding classification step.  This module implements that
reduction on top of the repository's own machinery:

1. **Group** the batch by exact skeleton (:func:`skeleton_key`).
2. **Enumerate the shared core once**: the skeleton is planned through
   the regular undirected session (plan cache and all) against the
   digraph's undirected view, and its distinct embeddings stream out as
   whole frontier *blocks* (:meth:`FrontierEngine.frontier_blocks` —
   2-D arrays, never per-embedding tuples).
3. **Give every core embedding one direction code**: an int64 with two
   bits per skeleton edge ``(a, b)`` (``a < b``, edge ``j`` in sorted
   order) — bit ``2j`` set iff ``e[a] -> e[b]`` is an arc, bit
   ``2j + 1`` iff ``e[b] -> e[a]`` is.  One gather per skeleton edge
   reads both bits at once from a direction table built once per
   digraph (one byte per ordered vertex pair), so a block costs
   ``|E(skeleton)|`` gathers however many automorphisms and patterns
   there are.  The block then collapses to its distinct codes and their
   multiplicities (``np.unique``), at most ``3 ** |E(skeleton)|`` of
   them.
4. **Classify codes, not embeddings**: restrictions made the skeleton
   enumeration emit one representative per ``Aut(skeleton)``-orbit of
   injective maps, so composing each embedding with every skeleton
   automorphism ``sigma`` sweeps *all* injective skeleton homomorphisms
   exactly once (the precomposition action is free on injective maps).
   Pattern ``P`` holds under ``e o sigma`` iff every arc ``(u, w)`` of
   ``P`` has its direction bit for ``(sigma(u), sigma(w))`` set in
   ``code(e)`` — one required-bit mask ``req_sigma`` per automorphism,
   precomputed per pattern before the block loop.
5. **Divide** each pattern's raw total by its directed automorphism
   count — exact by the orbit argument, asserted.  ``|dAut(P)|`` is
   read off the masks: a directed automorphism of ``P`` preserves its
   skeleton, so it is the ``sigma`` whose ``req_sigma(P)`` is ``P``'s
   own arc mask.

The arithmetic, explicitly: for patterns ``P`` sharing skeleton ``S``,

    count(P) = (1 / |dAut(P)|) * sum over distinct codes c of
               mult(c) * #{sigma in Aut(S) : c & req_sigma(P) == req_sigma(P)}

Two bits per edge in an int64 bound the skeleton at
:data:`MAX_SKELETON_EDGES` (31) edges, and the direction table bounds
the digraph at :data:`MAX_DIGRAPH_VERTICES` (2048) vertices.
:func:`reduce_directed_batch` rejects batches past either bound and
:meth:`MatchSession.count_many
<repro.core.session.MatchSession.count_many>`, which applies the
reduction automatically to directed batches (the ``reduce`` knob
controls it), counts them per pattern instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.stats import graph_memo
from repro.pattern.automorphism import automorphisms
from repro.pattern.directed import DiPattern
from repro.utils.timing import Timer

#: two direction bits per skeleton edge must fit in a non-negative int64.
MAX_SKELETON_EDGES = 31

#: the direction table holds one byte per ordered vertex pair, so it is
#: built only for digraphs of at most this many vertices (4 MiB).
MAX_DIGRAPH_VERTICES = 2048


class _View(NamedTuple):
    """A digraph's undirected view plus its direction table: entry
    ``u * n + v`` has bit 0 set iff ``u -> v`` is an arc and bit 1 iff
    ``v -> u`` is."""

    graph: object
    table: np.ndarray


def undirected_view(graph: DiGraph) -> _View:
    """The digraph's undirected view and direction table, one per live
    digraph, built on first use.

    ``DiGraph.to_undirected`` rebuilds an O(E) CSR per call; reduction
    needs the *same* view graph back each time so ``get_session`` reuses
    one session and its plan cache.
    """
    from repro.core.vectorised import graph_csrs

    memo = graph_memo(graph)
    view = memo.get("undirected_view")
    if view is None:
        n = graph.n_vertices
        out_csr, in_csr = graph_csrs(graph)
        table = np.zeros(n * n, dtype=np.uint8)
        table[out_csr.keys] = 1
        table[in_csr.keys] |= 2
        view = memo["undirected_view"] = _View(graph.to_undirected(), table)
    return view


def skeleton_key(pattern: DiPattern) -> tuple:
    """Exact-skeleton grouping key: ``(n_vertices, sorted edge tuple)``.

    Deliberately *exact* (not isomorphism-canonical): two orientations
    share a core enumeration only when their skeletons are literally
    the same labeled graph.  Isomorphic-but-relabeled skeletons fall
    back to per-pattern counting — correct, just unshared.
    """
    skeleton = pattern.skeleton()
    return (skeleton.n_vertices, tuple(sorted(skeleton.edges)))


def reducible(graph: DiGraph, key: tuple) -> bool:
    """Whether a :func:`skeleton_key` group on ``graph`` is within both
    bounds :func:`reduce_directed_batch` checks."""
    return len(key[1]) <= MAX_SKELETON_EDGES and graph.n_vertices <= MAX_DIGRAPH_VERTICES


@dataclass(frozen=True)
class ReductionReport:
    """What one shared-core evaluation did (``MatchResult.provenance``).

    ``cache_hit`` and ``seconds_plan`` describe the skeleton plan's
    lookup in the undirected view's session (``seconds_plan`` is 0.0 on
    a hit); ``seconds_execute`` covers the rest: building the undirected
    view on a digraph's first batch, enumeration and classification.
    """

    skeleton_key: tuple
    n_patterns: int
    n_automorphisms: int
    n_core_embeddings: int
    n_codes: int
    n_blocks: int
    cache_hit: bool
    seconds_plan: float
    seconds_execute: float

    def describe(self) -> str:
        return (
            f"reduction[{self.n_patterns} patterns over shared skeleton "
            f"{self.skeleton_key}; {self.n_core_embeddings} core embeddings "
            f"in {self.n_blocks} blocks -> {self.n_codes} direction codes "
            f"x {self.n_automorphisms} automorphisms]"
        )


def _core_blocks(ug, skeleton):
    """Plan the skeleton on the undirected view's session and stream its
    distinct embeddings as schedule-ordered blocks.

    Returns ``(blocks, schedule, entry, cache_hit)`` where ``blocks`` is
    an iterator of ``(n_embeddings, n)`` arrays with column ``d``
    holding the vertex bound at schedule position ``d``.
    """
    from repro.core.query import MatchQuery
    from repro.core.session import get_session
    from repro.core.vectorised import FrontierEngine

    entry, hit = get_session(ug)._lookup_or_plan(MatchQuery(pattern=skeleton, use_iep=False))
    plan = entry.plan
    return FrontierEngine(ug, plan).frontier_blocks(), plan.schedule, entry, hit


def reduce_directed_batch(
    graph: DiGraph, patterns: Sequence[DiPattern]
) -> tuple[list[int], ReductionReport]:
    """Count every pattern of one skeleton group via the shared core.

    All ``patterns`` must share the same :func:`skeleton_key`, with at
    most :data:`MAX_SKELETON_EDGES` skeleton edges, on a digraph of at
    most :data:`MAX_DIGRAPH_VERTICES` vertices; counts come back in
    input order and equal per-pattern :meth:`DirectedMatcher.count
    <repro.core.directed.DirectedMatcher.count>` exactly
    (property-tested).
    """
    if not patterns:
        raise ValueError("reduce_directed_batch needs at least one pattern")
    keys = {skeleton_key(p) for p in patterns}
    if len(keys) != 1:
        raise ValueError(
            f"patterns must share one skeleton, got {len(keys)} distinct: "
            f"{sorted(keys)}"
        )
    key = next(iter(keys))
    edges = key[1]
    if len(edges) > MAX_SKELETON_EDGES:
        raise ValueError(
            f"skeleton has {len(edges)} edges; direction codes hold at most "
            f"{MAX_SKELETON_EDGES} (2 bits per edge in an int64)"
        )
    if graph.n_vertices > MAX_DIGRAPH_VERTICES:
        raise ValueError(
            f"digraph has {graph.n_vertices} vertices; the direction table "
            f"holds at most {MAX_DIGRAPH_VERTICES} (one byte per vertex pair)"
        )
    skeleton = patterns[0].skeleton()
    with Timer() as t:
        view = undirected_view(graph)
        blocks, schedule, entry, hit = _core_blocks(view.graph, skeleton)
        # bit_of[x, y]: the direction-code bit of x -> y
        bit_of = {}
        for j, (a, b) in enumerate(edges):
            bit_of[a, b] = 2 * j
            bit_of[b, a] = 2 * j + 1
        auts = automorphisms(skeleton)
        # per pattern: its distinct masks req_sigma and how many sigma give
        # each, and |dAut(P)| — the sigma that map P's arcs onto themselves
        required, divisors = [], []
        for p in patterns:
            arcs = p.arcs
            req = [sum(1 << bit_of[sigma[u], sigma[w]] for u, w in arcs) for sigma in auts]
            required.append(np.unique(np.array(req, dtype=np.int64), return_counts=True))
            divisors.append(req.count(sum(1 << bit_of[u, w] for u, w in arcs)))
        pos = {v: d for d, v in enumerate(schedule)}
        n = np.int64(graph.n_vertices)
        raw = [0] * len(patterns)
        n_core = n_codes = n_blocks = 0
        for block in blocks:
            n_core += len(block)
            n_blocks += 1
            code = np.zeros(len(block), dtype=np.int64)
            for j, (a, b) in enumerate(edges):
                probe = block[:, pos[a]] * n + block[:, pos[b]]
                code |= view.table[probe].astype(np.int64) << (2 * j)
            codes, mult = np.unique(code, return_counts=True)
            n_codes += len(codes)
            for i, (masks, weights) in enumerate(required):
                for mask, weight in zip(masks, weights):
                    raw[i] += int(weight) * int(mult[(codes & mask) == mask].sum())
        counts = []
        for p, r, divisor in zip(patterns, raw, divisors):
            q, rem = divmod(r, divisor)
            if rem:
                raise AssertionError(
                    "directed automorphism division must be exact: "
                    f"{r} / {divisor} for {p!r}"
                )
            counts.append(q)
    # the view build, the skeleton plan lookup and the enumeration all ran
    # under the timer; a planning miss is reported as planning
    seconds_plan = 0.0 if hit else entry.seconds_plan
    report = ReductionReport(
        skeleton_key=key,
        n_patterns=len(patterns),
        n_automorphisms=len(auts),
        n_core_embeddings=n_core,
        n_codes=n_codes,
        n_blocks=n_blocks,
        cache_hit=hit,
        seconds_plan=seconds_plan,
        seconds_execute=max(0.0, t.elapsed - seconds_plan),
    )
    return counts, report

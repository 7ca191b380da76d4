"""The vectorised frontier backend: bulk extension of whole candidate sets.

Every other single-process backend in this repository expands candidates
one partial embedding at a time — the nested-loop DFS of
:mod:`repro.core.engine` and the generated code of
:mod:`repro.core.codegen` both pay Python interpreter overhead per
embedding.  Set-centric systems (GraphMini, Peregrine's pattern-aware
exploration) avoid that by operating on whole candidate sets at once;
this module brings the same execution style to GraphPi's planned
schedules and restrictions:

* the partial embeddings at loop depth ``d`` are one 2-D ``numpy`` array
  (the *frontier*, shape ``(n_partial, d)``, one row per embedding);
* extending the frontier to depth ``d + 1`` is a handful of whole-array
  operations: clip each row's candidate range to its restriction
  window by binary-searching sorted keys, gather the clipped ranges
  (:func:`~repro.graph.intersection.gather_ranges`), and intersect
  against the remaining bound neighbourhoods with batched binary search
  (:func:`~repro.graph.intersection.bulk_contains_sorted`) — GraphPi's
  restriction inequalities ``id(u) > id(v)`` are thereby enforced
  *before* the gather, and :func:`restriction_mask` re-applies them as
  vectorised boolean masks where candidates are re-examined;
* the innermost loop never materialises in plain mode: its surviving
  candidates are simply counted, the bulk form of the interpreter's
  last-loop shortcut.

IEP suffix (§IV-D)
------------------
A plain or directed edge-semantics plan with an IEP suffix
(``iep_k > 0``) extends the frontier only to depth ``n - iep_k``.  The
innermost ``k`` pattern vertices are pairwise non-adjacent, so every
block ``B`` of the partition-lattice formula (:mod:`repro.core.iep`)
needs one per-row cardinality ``|∩_{i∈B} S_i − bound|``, and that
depends only on the block's *signature*: the union of its dependency
refs, its lower columns (window ``> max``) and its upper columns
(window ``< min``).
Each distinct signature is one call of the same per-row counter the
innermost loop uses (:meth:`FrontierEngine._row_counts`); the
partitions then combine those columns with their Möbius weights.  The
arithmetic is exact: a chunk whose row maxima could push a term or a
partial sum past ``2**62`` is evaluated in Python ints, never in
wrapping int64.  ``count_roots`` returns raw sums (so distributed
partial sums add) and ``count`` divides by ``plan.iep_overcount`` once.

Auxiliary-graph pruning (GraphMini)
-----------------------------------
The direct path re-gathers and re-intersects the same hub rows for
every sibling row at a depth.  When that redundancy is worth removing,
the engine materialises a *scratch CSR* — one pruned candidate row per
distinct prefix — and the subtree below reads those small rows instead
of the full CSR (:class:`_CandidateSource`).  Two mechanisms feed it:

* **group dedup**: frontier rows sharing their dependency-column values
  share one ``∩ of neighbourhoods`` build
  (:func:`~repro.graph.intersection.bulk_intersect_rows` over the
  distinct groups found with ``np.unique``; duplicates are generally
  *not* consecutive, so run detection is not enough);
* **pool chaining**: when ``deps[d] ⊇ covers`` of a pool built at an
  earlier depth, the next pool is the old pool intersected with the
  residual neighbourhoods
  (:func:`~repro.graph.intersection.refine_scratch_rows`) — on
  clique-like patterns each depth's candidate rows shrink by a
  density factor instead of restarting from full degree rows.

Materialisation is gated by a cost model over
:class:`~repro.graph.stats.DegreeStats` (estimated reuse x row size vs.
build cost) so sparse prefixes keep the direct path; ``aux=True/False``
forces the choice for ablation (``benchmarks/bench_auxiliary.py``).

Labeled and induced execution
-----------------------------
The same frontier pipeline serves labeled and vertex-induced plans,
reading the plan's per-depth label and anti columns
(:mod:`repro.core.config`): labeled roots come pre-filtered and each
depth applies a vectorised label mask; a depth with anti columns adds
anti-edge masks (``~bulk_contains_sorted``) against each of them — the
interpreter's ``difference`` calls, bulk.  The innermost depth counts
without materialising unless it carries a label or anti columns.

Directed execution
------------------
Direction is a candidate source, not a second engine.  Each depth reads
the plan's *dependency refs*: a frontier column plus the out- or in-CSR
the new vertex must lie in, each bound once in the constructor to its
keyed CSR (rows and their sorted ``u * n + v`` key array).  An
undirected :class:`~repro.graph.csr.Graph` has one CSR, which serves
both directions; a :class:`~repro.graph.digraph.DiGraph` has two, and an
antiparallel dependency is two refs on the same column.  Every key
array is built over its own CSR's rows, so "is ``c`` a successor
(predecessor) of ``x``" is the same ``x * n + c`` probe against the out
(in) keys, and restriction windows resolve by the same keyed binary
search whichever CSR a ref reads.  The pivot is chosen per ref, and the
other refs become membership probes; IEP block signatures are unions
of refs, lower and upper columns.  Auxiliary pools stay on graphs with
one CSR: their builders and cost gate read the undirected rows and
degrees.

What the backend deliberately does **not** cover (the fallback chain
in :func:`~repro.core.backend.select_backend` handles these): IEP
suffixes of labeled plans (the session plans labeled queries IEP-free;
induced plans cannot carry one) and schedules with a disconnected
prefix (the phase-1 generator never emits these).

Frontiers grow multiplicatively with depth, so :class:`FrontierEngine`
bounds peak memory by processing the root vertices in chunks
(``root_chunk``): each chunk runs through the whole loop nest before the
next starts, which also keeps enumeration lazy and in the interpreter's
DFS order (every gather is owner-major with ascending candidates, with
or without auxiliary pools).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.config import ExecutionPlan, bind_graph
from repro.core.iep import apply_overcount, partition_coefficient, set_partitions
from repro.graph.csr import Graph
from repro.graph.digraph import DiGraph
from repro.graph.intersection import (
    bulk_contains_sorted,
    bulk_intersect_rows,
    gather_ranges,
    refine_scratch_rows,
    sorted_edge_keys,
)
from repro.graph.stats import degree_statistics, graph_memo
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span

#: default number of root vertices processed per frontier sweep.
DEFAULT_ROOT_CHUNK = 32768

#: auxiliary pruning is not considered below this frontier size in
#: ``aux="auto"`` mode — the bookkeeping cannot amortise.
AUX_MIN_ROWS = 48

#: the ``np.unique`` dedup sort is charged this fraction of a gather
#: element-visit in the group-materialisation gate.
AUX_SORT_COST = 0.25

#: one ``bulk_contains`` membership probe (a log₂E searchsorted into the
#: full adjacency array) is charged this many gather element-visits in
#: the group-materialisation gate.
AUX_CONTAINS_COST = 1.0

#: a pool the next depth could chain from is worth building only when
#: the group dedup also removes at least this fraction of the frontier
#: rows — with no duplicates (G == F, e.g. a clique's edge frontier)
#: the unwindowed build loses to the windowed direct gather outright.
AUX_STORE_DEDUP = 0.75

#: a chunk's IEP terms and partial sums stay in int64 only while the
#: bound derived from its row maxima is at most this; otherwise the
#: chunk is evaluated in Python ints.
IEP_INT64_LIMIT = 2**62


class _Csr(NamedTuple):
    """One adjacency structure: CSR rows plus their sorted keys
    ``u * n + v``, so per-row windows and membership probes are binary
    searches."""

    indptr: np.ndarray
    indices: np.ndarray
    keys: np.ndarray


class _Ref(NamedTuple):
    """One adjacency constraint at a depth: the new vertex lies in the
    ``csr`` row of the value bound at frontier column ``col``."""

    col: int
    csr: _Csr


def graph_csrs(graph: Graph | DiGraph) -> tuple[_Csr, _Csr]:
    """A graph's ``(out, in)`` keyed CSRs, built once per live graph.

    Each key array is built over its own CSR's rows, so both directions
    answer with the same probe shape: ``c`` is a successor of ``x`` iff
    ``x * n + c`` is in the out keys, a predecessor iff it is in the in
    keys.  An undirected graph has one CSR, returned as both.  Graphs
    are immutable, so every engine built on a graph shares the keys —
    repeated cached-plan executions (a motif census, a service draining
    requests) must not pay the O(E) rebuild per call.
    """
    memo = graph_memo(graph)
    csrs = memo.get("csrs")
    if csrs is None:
        if isinstance(graph, DiGraph):
            csrs = tuple(
                _Csr(indptr, indices, sorted_edge_keys(indptr, indices))
                for indptr, indices in (
                    (graph.out_indptr, graph.out_indices),
                    (graph.in_indptr, graph.in_indices),
                )
            )
        else:
            one = _Csr(
                graph.indptr, graph.indices, sorted_edge_keys(graph.indptr, graph.indices)
            )
            csrs = (one, one)
        memo["csrs"] = csrs
    return csrs


def frontier_gap(plan: ExecutionPlan) -> str | None:
    """Why the frontier engine cannot run ``plan``, or ``None``.

    The one definition of what the frontier covers, shared by
    :meth:`VectorisedBackend.supports` and the :class:`FrontierEngine`
    constructor (which raises it).
    """
    if plan.iep_k > 0 and plan.mode == "labeled":
        return (
            "the frontier engine runs IEP suffixes of unlabeled plans only "
            "(undirected or directed edge semantics); plan labeled queries "
            "with use_iep=False or fall back to the interpreter"
        )
    if not all(plan.deps[1:]):
        return (
            "the frontier engine requires a connected-prefix schedule "
            "(every depth past the first needs a dependency to pivot on)"
        )
    return None


def _window(
    front: np.ndarray, lower: Sequence[int], upper: Sequence[int]
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-row restriction window ``(lo, hi)`` for a new vertex.

    A candidate must exceed every ``lower`` column's value and stay
    below every ``upper`` column's — for integers that collapses to the
    open interval ``(max lowers, min uppers)`` per frontier row, exactly
    what the interpreter's ``bounded_slice`` resolves.
    """
    lo = front[:, lower].max(axis=1) if lower else None
    hi = front[:, upper].min(axis=1) if upper else None
    return lo, hi


def _clipped_rows(
    indptr: np.ndarray,
    keys: np.ndarray,
    rows: np.ndarray,
    n: int,
    lo: np.ndarray | None,
    hi: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, counts)`` of each of ``rows`` clipped to ``(lo, hi)``.

    Because the keys ``row * n + value`` are globally sorted, the binary
    search for "first value of row ``rows[i]`` above ``lo[i]``" runs for
    the whole frontier in one ``searchsorted`` — restriction pruning
    happens *before* the gather, so excluded candidates are never
    materialised (the paper's ``break``, bulk).
    """
    keyed = rows * n
    starts = (
        indptr[rows] if lo is None else np.searchsorted(keys, keyed + lo, side="right")
    )
    ends = (
        indptr[rows + 1] if hi is None else np.searchsorted(keys, keyed + hi, side="left")
    )
    return starts, np.maximum(ends - starts, 0)


@lru_cache(maxsize=256)
def _iep_layout(k: int, families: tuple) -> tuple[tuple, tuple]:
    """The IEP suffix of the last ``k`` positions as ``(signatures, terms)``.

    ``families`` are the plan's per-position families — ``(refs, lower,
    upper)``; the layout depends on nothing else, so it is computed once
    per distinct plan shape, not once per count.  ``signatures`` are the
    distinct per-family unions of the partition blocks (a block's
    candidate set is the intersection of its members' sets, so it
    depends on the unions only); ``terms`` are
    ``(coefficient, signature indices)`` pairs, one per distinct
    multiset of block signatures with the partitions' Möbius weights
    summed — a star's Bell(k) partitions collapse to k terms.
    """
    base = len(families[0]) - k
    signatures: dict[tuple, int] = {}
    weights: dict[tuple[int, ...], int] = {}
    for partition in set_partitions(k):
        idx = []
        for block in partition:
            positions = [base + i for i in block]
            sig = tuple(
                tuple(sorted({j for p in positions for j in cols[p]}))
                for cols in families
            )
            idx.append(signatures.setdefault(sig, len(signatures)))
        key = tuple(sorted(idx))
        weights[key] = weights.get(key, 0) + partition_coefficient(partition)
    terms = tuple((c, key) for key, c in weights.items() if c)
    return tuple(signatures), terms


def _term_sum(cards: list[np.ndarray], terms) -> np.ndarray:
    """Per-row ``Σ_terms coeff · Π cards`` (dtype follows ``cards``)."""
    total = None
    for coeff, idx in terms:
        term = cards[idx[0]] * coeff
        for i in idx[1:]:
            term = term * cards[i]
        total = term if total is None else total + term
    return total


def _iep_combine(cards: list[np.ndarray], terms) -> int:
    """Exact ``Σ_rows Σ_terms coeff · Π cards`` over one chunk.

    Cardinalities are non-negative, so ``Σ |coeff| · Π max(card)`` bounds
    every partial product and every per-row partial sum.  Within
    :data:`IEP_INT64_LIMIT` the rows are evaluated in int64 and summed
    in slices whose totals cannot pass the limit either; beyond it the
    whole chunk runs on Python ints (object arrays).
    """
    maxima = [int(c.max()) for c in cards]
    bound = sum(abs(c) * math.prod(maxima[i] for i in idx) for c, idx in terms)
    if bound == 0:
        return 0
    if bound > IEP_INT64_LIMIT:
        return int(_term_sum([c.astype(object) for c in cards], terms).sum())
    per_row = _term_sum(cards, terms)
    step = IEP_INT64_LIMIT // bound
    return sum(
        int(per_row[i : i + step].sum()) for i in range(0, len(per_row), step)
    )


def restriction_mask(
    front: np.ndarray,
    owner: np.ndarray,
    cand: np.ndarray,
    lower: Sequence[int],
    upper: Sequence[int],
) -> np.ndarray:
    """Vectorised GraphPi restriction predicate for one extension step.

    ``front`` is the depth-``d`` frontier, ``(owner, cand)`` the proposed
    extension pairs (``cand[i]`` extends row ``front[owner[i]]``), and
    ``lower``/``upper`` the plan's restriction columns at the new depth:
    a column ``j`` in ``lower`` means ``id(new) > id(bound_j)``, in
    ``upper`` ``id(bound_j) > id(new)`` — exactly the scalar predicates
    of :mod:`repro.core.restrictions`, evaluated for every pair at once.
    """
    mask = np.ones(len(cand), dtype=bool)
    for j in lower:
        mask &= cand > front[owner, j]
    for j in upper:
        mask &= cand < front[owner, j]
    return mask


def _encode_columns(cols: list[np.ndarray]) -> np.ndarray | None:
    """Pack parallel int columns into one int64 key, or ``None`` on
    overflow risk (callers then skip the dedup, never miscount)."""
    key = cols[0].astype(np.int64, copy=True)
    span = int(key.max()) + 1 if len(key) else 1
    for col in cols[1:]:
        base = int(col.max()) + 1 if len(col) else 1
        if span > (2**62) // max(base, 1):
            return None
        key *= base
        key += col
        span *= base
    return key


class _CandidateSource:
    """Per-frontier-row candidate pools in keyed-CSR form.

    Uniform view over the two places candidates come from:

    * the graph itself (*virtual*: ``indptr``/``values``/``keys`` are
      the pivot ref's CSR arrays and ``row_map`` holds its column's
      vertices; ``post_refs`` lists the refs still to be mask-checked);
    * a materialised scratch CSR (auxiliary pruning: one pruned row per
      distinct prefix, ``row_map`` maps frontier rows onto pool rows,
      ``covers`` are already intersected in, ``post_refs`` is empty).

    ``keys[i] = row_id * n + values[i]`` is globally sorted either way,
    so per-row restriction windows resolve with two ``searchsorted``
    calls regardless of the source kind.
    """

    __slots__ = ("indptr", "values", "keys", "row_map", "covers", "post_refs", "materialised")

    def __init__(self, indptr, values, keys, row_map, covers, post_refs, materialised):
        self.indptr = indptr
        self.values = values
        self.keys = keys
        self.row_map = row_map
        self.covers = covers
        self.post_refs = post_refs
        self.materialised = materialised

    def aligned(self, owner: np.ndarray) -> "_CandidateSource":
        """The same pool re-aligned to an extended frontier (row ``i`` of
        the new frontier descends from old row ``owner[i]``)."""
        return _CandidateSource(
            self.indptr,
            self.values,
            self.keys,
            self.row_map[owner],
            self.covers,
            self.post_refs,
            self.materialised,
        )


class FrontierEngine:
    """Executes one plan against one graph, breadth-first.

    The vectorised counterpart of :class:`repro.core.engine.Engine`:
    same plan, same counts, but each loop depth is one bulk array
    operation over the whole frontier instead of a recursive call per
    partial embedding.  Every mode runs the same loop from the plan's
    per-depth operations (see the module docstring); plain and directed
    plans may carry an IEP suffix (``iep_k > 0``), counted in bulk per
    block signature; labeled plans must be IEP-free.

    Parameters
    ----------
    graph:
        The graph kind the plan's mode runs on: a
        :class:`~repro.graph.csr.Graph` (or a
        :class:`~repro.graph.labeled.LabeledGraph`, whose structure is
        read) for plain and induced plans, a ``LabeledGraph`` for
        labeled ones, a :class:`~repro.graph.digraph.DiGraph` for
        directed ones.
    aux:
        Auxiliary-graph pruning: ``"auto"`` (cost-gated, default),
        ``True`` (always materialise/chain when structurally possible)
        or ``False`` (pure direct path — the pre-pruning engine).  A
        digraph has two CSRs and always takes the direct path.
    """

    def __init__(
        self,
        graph,
        plan: ExecutionPlan,
        *,
        root_chunk: int = DEFAULT_ROOT_CHUNK,
        aux: "bool | str" = "auto",
    ):
        gap = frontier_gap(plan)
        if gap is not None:
            raise ValueError(gap)
        if root_chunk < 1:
            raise ValueError("root_chunk must be >= 1")
        if aux not in (True, False, "auto"):
            raise ValueError('aux must be True, False or "auto"')
        graph, _, self._labels = bind_graph(graph, plan)
        self.graph = graph
        self.plan = plan
        self.root_chunk = root_chunk
        self._n = graph.n_vertices
        self._csrs = graph_csrs(graph)
        self._refs = tuple(self._bind(refs) for refs in plan.refs)
        # The pool builders and their cost gate read the one undirected
        # CSR and its degrees, so a digraph takes the direct path.
        self.aux = aux if self._csrs[0] is self._csrs[1] else False
        if self.aux is not False:
            self._degrees = graph.degrees
            self._dstats = degree_statistics(graph)
        if plan.iep_k > 0:
            signatures, self._iep_terms = _iep_layout(
                plan.iep_k, (plan.refs, plan.lower, plan.upper)
            )
            self._iep_blocks = tuple(
                (self._bind(refs), tuple(sorted({j for j, _ in refs})), lower, upper)
                for refs, lower, upper in signatures
            )

    def _bind(self, refs) -> tuple[_Ref, ...]:
        """The plan's ``(column, direction)`` refs bound to keyed CSRs."""
        return tuple(_Ref(j, self._csrs[way]) for j, way in refs)

    # ------------------------------------------------------------------
    # bounded candidate ranges (the bulk form of ``bounded_slice``)
    # ------------------------------------------------------------------
    def _window_ranges(
        self, src: _CandidateSource, lo: np.ndarray | None, hi: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each frontier row's candidate row in ``src``, clipped to its
        window: scratch keys share the ``row_id * n + value`` layout of
        the edge keys, so one keyed binary search serves both kinds."""
        return _clipped_rows(src.indptr, src.keys, src.row_map, self._n, lo, hi)

    def _pivot_ranges(
        self, front: np.ndarray, refs: Sequence[_Ref], lo, hi
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """The ref whose bounded rows expand to the fewest pairs, with
        those ranges; the other refs become per-pair membership filters
        (one binary search each).  The pivot is chosen per ref, not per
        column: an antiparallel column carries one ref per direction and
        both probes must run."""
        best = None
        for i, ref in enumerate(refs):
            starts, counts = _clipped_rows(
                ref.csr.indptr, ref.csr.keys, front[:, ref.col], self._n, lo, hi
            )
            total = int(counts.sum())
            if best is None or total < best[0]:
                best = (total, i, starts, counts)
        return best[1], best[2], best[3]

    # ------------------------------------------------------------------
    # auxiliary candidate sources (GraphMini-style pruning)
    # ------------------------------------------------------------------
    def _chain_source(
        self, front: np.ndarray, deps: Sequence[int], prev: _CandidateSource | None
    ) -> _CandidateSource | None:
        """Chain a previously materialised pool into a candidate set
        over the dependency columns ``deps``.

        Applicable when the pool's ``covers`` is a subset of ``deps``:
        the new candidate rows are the old pool
        rows intersected with the residual neighbourhoods — never the
        full CSR rows.  With no residual the pool is reused as-is
        (free); otherwise distinct ``(pool row, residual values)``
        groups are refined once and shared.
        """
        if prev is None or self.aux is False:
            return None
        if len(deps) < 2 or not set(prev.covers) <= set(deps):
            return None
        resid = tuple(j for j in deps if j not in prev.covers)
        if not resid:
            return prev
        if self.aux == "auto" and not self._chain_pays(front, deps, prev, resid):
            return None
        resid_cols = [front[:, j] for j in resid]
        key = _encode_columns([prev.row_map] + resid_cols)
        if key is None:
            reps = np.arange(len(front), dtype=np.int64)
            inverse = reps
        else:
            _, reps, inverse = np.unique(key, return_index=True, return_inverse=True)
        indptr, values, keys = refine_scratch_rows(
            prev.indptr,
            prev.values,
            prev.row_map[reps],
            self._csrs[0].keys,
            np.column_stack([front[reps, j] for j in resid]),
            self._n,
        )
        covers = tuple(sorted(set(prev.covers) | set(resid)))
        return _CandidateSource(indptr, values, keys, inverse, covers, (), True)

    def _chain_pays(self, front, deps, prev: _CandidateSource, resid) -> bool:
        """Chaining wins when refining the (already pruned) pool rows
        beats re-gathering a pivot's degree-sized rows: mean pool row x
        (1 gather + |resid| membership passes) vs. mean pivot row x
        (1 gather + |deps|-1 membership passes)."""
        rows = prev.row_map
        pool_mean = float((prev.indptr[rows + 1] - prev.indptr[rows]).mean())
        pivot_mean = min(float(self._degrees[front[:, j]].mean()) for j in deps)
        return pool_mean * (1 + len(resid)) <= pivot_mean * len(deps)

    def _group_source(
        self, front: np.ndarray, deps: Sequence[int], store_wanted: bool
    ) -> _CandidateSource | None:
        """Materialise one pruned row per distinct dependency-value group.

        Frontier rows that agree on all dependency columns share their
        candidate intersection exactly (restriction windows and
        injectivity masks still differ per row and are applied at use
        time).  Duplicates are generally *not* consecutive — e.g. a
        depth depending on columns {1, 2} repeats across every value of
        column 0 — so groups are found with ``np.unique`` over the
        packed dependency values, not run detection.  ``store_wanted``
        says a later candidate set could chain from the pool (its
        dependencies are a superset of ``deps``), which earns the pool
        a relaxed gate.
        """
        if self.aux is False:
            return None
        if len(deps) < 2:
            return None
        if self.aux == "auto" and len(front) < AUX_MIN_ROWS:
            return None
        key = _encode_columns([front[:, j] for j in deps])
        if key is None:
            return None
        _, reps, inverse = np.unique(key, return_index=True, return_inverse=True)
        n_groups, n_rows = len(reps), len(front)
        if self.aux == "auto":
            # A pool the next depth can chain from earns a relaxed gate,
            # but only when the dedup itself removes real duplicates —
            # a duplicate-free frontier (G == F) makes the unwindowed
            # build a pure loss however reusable the pool is.
            chain_pays = store_wanted and n_groups <= AUX_STORE_DEDUP * n_rows
            if not chain_pays:
                # The cost-model gate.  Per frontier row the direct path
                # gathers a pivot-degree-sized row and then runs a
                # membership probe over every gathered element for each
                # remaining dependency; the pool does that work once per
                # *group*, so each duplicate row saves the whole pass.
                # The pool's own extra costs are the dedup sort and the
                # per-row window-gather of a pre-intersected row, whose
                # expected size shrinks by p1 per extra dependency
                # (DegreeStats supplies p1; the pivot degree is measured
                # on the live frontier, which skews to hubs that the
                # global average badly understates).
                k = len(deps)
                pivot_mean = min(
                    float(self._degrees[front[:, j]].mean()) for j in deps
                )
                per_row = pivot_mean * (1.0 + AUX_CONTAINS_COST * (k - 1))
                pooled_row = max(pivot_mean * self._dstats.p1 ** (k - 1), 1.0)
                saved = (n_rows - n_groups) * per_row
                build = n_rows * pooled_row
                build += AUX_SORT_COST * n_rows * math.log2(max(n_rows, 2))
                if saved < build:
                    return None
        csr = self._csrs[0]
        indptr, values, keys = bulk_intersect_rows(
            csr.indptr,
            csr.indices,
            csr.keys,
            front[np.ix_(reps, list(deps))],
            self._n,
        )
        return _CandidateSource(indptr, values, keys, inverse, tuple(deps), (), True)

    def _prepare(
        self, front: np.ndarray, depth: int, prev: _CandidateSource | None
    ) -> tuple[_CandidateSource, np.ndarray, np.ndarray]:
        """Choose this depth's candidate source and window it per row."""
        plan = self.plan
        deps = plan.deps[depth]
        lo, hi = _window(front, plan.lower[depth], plan.upper[depth])
        src = self._chain_source(front, deps, prev)
        if src is None:
            store_wanted = depth + 1 < plan.n and set(deps) <= set(plan.deps[depth + 1])
            src = self._group_source(front, deps, store_wanted)
        if src is not None:
            starts, counts = self._window_ranges(src, lo, hi)
            return src, starts, counts
        refs = self._refs[depth]
        pivot, starts, counts = self._pivot_ranges(front, refs, lo, hi)
        ref = refs[pivot]
        src = _CandidateSource(
            ref.csr.indptr,
            ref.csr.indices,
            ref.csr.keys,
            front[:, ref.col],
            (ref.col,),
            refs[:pivot] + refs[pivot + 1 :],
            False,
        )
        return src, starts, counts

    # ------------------------------------------------------------------
    # frontier extension
    # ------------------------------------------------------------------
    def _extend(
        self, front: np.ndarray, depth: int, prev: _CandidateSource | None = None
    ) -> tuple[np.ndarray, np.ndarray, _CandidateSource]:
        """All valid ``(owner, candidate)`` extensions of ``front``.

        Owner-major with ascending candidates inside each owner — the
        same order the DFS interpreter visits, so frontiers (and
        therefore enumeration) stay in DFS order by induction, with or
        without an auxiliary source.  Returns the source used so the
        caller can carry a materialised pool into the next depth.
        """
        n = self._n
        src, starts, counts = self._prepare(front, depth, prev)
        owner, cand = gather_ranges(src.values, starts, counts)
        obs_metrics.FRONTIER_ROWS.inc(len(cand))
        obs_metrics.FRONTIER_SOURCES.labels(
            source="pool" if src.materialised else "csr"
        ).inc()
        mask = np.ones(len(cand), dtype=bool)
        if src.post_refs:
            obs_metrics.FRONTIER_INTERSECTIONS.labels(kernel="membership").inc(
                len(src.post_refs)
            )
        for ref in src.post_refs:
            mask &= bulk_contains_sorted(ref.csr.keys, front[owner, ref.col] * n + cand)
        # Injectivity: adjacency already rules out the dependency columns
        # (no self-loops), only the other bound vertices remain.
        plan = self.plan
        deps = plan.deps[depth]
        for j in range(depth):
            if j not in deps:
                mask &= cand != front[owner, j]
        # Anti-edges: the candidate must not be adjacent to any anti
        # column's bound vertex.
        keys = self._csrs[0].keys
        for j in plan.anti[depth]:
            mask &= ~bulk_contains_sorted(keys, front[owner, j] * n + cand)
        if self._labels is not None:
            mask &= self._labels[cand] == plan.labels[depth]
        return owner[mask], cand[mask], src

    # ------------------------------------------------------------------
    # per-row candidate counts: the innermost loop and the IEP blocks
    # ------------------------------------------------------------------
    def _count_last(
        self, front: np.ndarray, depth: int, prev: _CandidateSource | None
    ) -> int:
        """Candidates surviving the innermost loop, summed over ``front``."""
        if len(front) == 0:
            return 0
        plan = self.plan
        if self._labels is None and not plan.anti[depth]:
            src = self._chain_source(front, plan.deps[depth], prev)
            obs_metrics.FRONTIER_INTERSECTIONS.labels(
                kernel="direct" if src is None else "pooled"
            ).inc()
            counts = self._row_counts(
                front, self._refs[depth], plan.lower[depth], plan.upper[depth], src
            )
            return int(counts.sum())
        # Label and anti-edge masks need the candidates materialised; the
        # arrays are small (label/anti filters prune hard) and the
        # extension pipeline already applies every mask.
        _, cand, _ = self._extend(front, depth, prev)
        return len(cand)

    def _row_counts(
        self,
        front: np.ndarray,
        refs: Sequence[_Ref],
        lower: Sequence[int],
        upper: Sequence[int],
        src: _CandidateSource | None = None,
    ) -> np.ndarray:
        """Per-row ``|∩_{refs} row ∩ window − bound|`` (int64).

        The window is ``(max lower columns, min upper columns)``; every
        bound vertex of the row that falls inside the windowed set is
        subtracted (dependency columns cannot, there are no self-loops).
        With ``src`` — a pool covering every dependency — the windowed
        sizes come straight from the keyed binary search, no gather at
        all.  Without it, rows that agree on the dependency values and
        the window share one evaluation (a gather and probe, or the
        binary searches of a window): when those depend on a column
        prefix the DFS-sorted frontier keeps equal keys adjacent (run
        detection suffices), otherwise the keys are sorted together
        first.  The dedup is skipped when it cannot pay: one ref with no
        window counts straight from the CSR offsets, and keys covering
        every column make each row its own group (frontier rows are
        distinct).  Bound vertices of a window column lie outside the
        window by definition, so only the other non-dependency columns
        are checked.
        """
        n = self._n
        deps = {ref.col for ref in refs}
        cols = deps | set(lower) | set(upper)
        lo, hi = _window(front, lower, upper)
        if src is not None:
            _, counts = self._window_ranges(src, lo, hi)

            def inside(used):
                return bulk_contains_sorted(src.keys, src.row_map * n + used)

        else:
            if (len(refs) == 1 and lo is None and hi is None) or len(cols) == front.shape[1]:
                reps = group = None
                rep_front, rep_lo, rep_hi = front, lo, hi
            else:
                key_cols = [front[:, j] for j in sorted(deps)]
                if lo is not None:
                    key_cols.append(lo)
                if hi is not None:
                    key_cols.append(hi)
                keys = np.column_stack(key_cols)
                order = None
                if cols != set(range(len(cols))):
                    # The key skips an earlier column, so equal keys are
                    # scattered across the DFS order: sort them together.
                    order = np.lexsort(keys.T)
                    keys = keys[order]
                change = np.empty(len(front), dtype=bool)
                change[0] = True
                np.any(keys[1:] != keys[:-1], axis=1, out=change[1:])
                reps = np.flatnonzero(change)
                group = np.cumsum(change) - 1
                if order is not None:
                    reps = order[reps]
                    group[order] = group.copy()
                rep_front = front[reps]
                rep_lo = lo[reps] if lo is not None else None
                rep_hi = hi[reps] if hi is not None else None
            pivot, starts, counts = self._pivot_ranges(rep_front, refs, rep_lo, rep_hi)
            if len(refs) > 1:
                owner, cand = gather_ranges(refs[pivot].csr.indices, starts, counts)
                mask = np.ones(len(cand), dtype=bool)
                for i, ref in enumerate(refs):
                    if i != pivot:
                        mask &= bulk_contains_sorted(
                            ref.csr.keys, rep_front[owner, ref.col] * n + cand
                        )
                counts = np.bincount(owner[mask], minlength=len(rep_front))
            if group is not None:
                counts = counts[group]

            def inside(used):
                hit = np.ones(len(front), dtype=bool)
                for ref in refs:
                    hit &= bulk_contains_sorted(
                        ref.csr.keys, front[:, ref.col] * n + used
                    )
                return hit

        rows = np.arange(len(front))
        for k in range(front.shape[1]):
            if k in cols:
                continue
            used = front[:, k]
            hit = inside(used) & restriction_mask(front, rows, used, lower, upper)
            counts = counts - hit
        return counts

    def _count_iep(self, front: np.ndarray, prev: _CandidateSource | None) -> int:
        """The raw IEP suffix over a frontier of outer assignments.

        One :meth:`_row_counts` column per distinct block signature,
        combined exactly by the partition-lattice formula; the
        ``iep_overcount`` division is left to :meth:`count`.  Signatures
        run fewest refs first, so a pool materialised for a block
        (``N(a) ∩ N(b)`` per distinct ``(a, b)``) is chained into every
        larger block over the same columns, exactly as the loop depths
        chain theirs.
        """
        blocks = self._iep_blocks
        pools = [prev] if prev is not None else []
        cards: list = [None] * len(blocks)
        for i in sorted(range(len(blocks)), key=lambda i: len(blocks[i][0])):
            refs, deps, lower, upper = blocks[i]
            src = None
            for pool in pools:
                src = self._chain_source(front, deps, pool)
                if src is not None:
                    break
            if src is None:
                store_wanted = any(set(deps) < set(d) for _, d, _, _ in blocks)
                src = self._group_source(front, deps, store_wanted)
                if src is not None:
                    pools.append(src)
            cards[i] = self._row_counts(front, refs, lower, upper, src)
        obs_metrics.FRONTIER_INTERSECTIONS.labels(kernel="iep").inc(len(cards))
        return _iep_combine(cards, self._iep_terms)

    # ------------------------------------------------------------------
    # root chunks
    # ------------------------------------------------------------------
    def _rooted(self, roots) -> np.ndarray:
        """``roots`` as int64 ids, filtered to the first depth's label."""
        roots = np.asarray(roots, dtype=np.int64)
        if self._labels is not None:
            roots = roots[self._labels[roots] == self.plan.labels[0]]
        return roots

    def _root_chunks(self, roots: np.ndarray, first: int | None = None) -> Iterator[np.ndarray]:
        """Sweep ``roots`` in chunks of at most ``root_chunk``.

        ``first`` starts smaller and grows geometrically — enumeration
        with a small ``limit`` should not pay for a full chunk's
        frontier when the first few roots already satisfy it.
        """
        start, size = 0, min(first or self.root_chunk, self.root_chunk)
        while start < len(roots):
            yield roots[start : start + size]
            start += size
            size = min(size * 2, self.root_chunk)

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Total number of embeddings under this plan (cf. ``Engine.count``)."""
        return apply_overcount(self.plan, self.count_roots(self.graph.vertices()))

    def count_roots(self, roots) -> int:
        """Raw embeddings whose root (outermost loop) vertex lies in ``roots``.

        The per-task entry point of the distributed backend: a root-range
        task is one bulk frontier sweep, and summing ``count_roots`` over
        a partition of the vertex set, then dividing by
        ``plan.iep_overcount`` (:func:`~repro.core.iep.apply_overcount`),
        equals :meth:`count` exactly.  ``roots`` may be any 1-D sequence
        of vertex ids; it is swept in ``root_chunk``-sized batches like
        the full count.
        """
        plan = self.plan
        if plan.n > self._n:
            return 0
        roots = self._rooted(roots)
        if plan.n == 1:
            return len(roots)
        total = 0
        for chunk in self._root_chunks(roots):
            front = chunk[:, None]
            prev: _CandidateSource | None = None
            for depth in range(1, plan.n_loops):
                if depth == plan.n - 1:
                    with span("depth", depth=depth, last=True) as sp:
                        c = self._count_last(front, depth, prev)
                        sp.set(rows=len(front), count=c)
                    total += c
                    break
                with span("depth", depth=depth) as sp:
                    owner, cand, src = self._extend(front, depth, prev)
                    sp.set(
                        rows=len(front),
                        kept=len(cand),
                        source="pool" if src.materialised else "csr",
                    )
                if len(cand) == 0:
                    front = front[:0]
                    break
                front = np.concatenate([front[owner], cand[:, None]], axis=1)
                prev = src.aligned(owner) if src.materialised else None
            if plan.iep_k and len(front):
                with span("depth", depth=plan.n_loops, iep=plan.iep_k) as sp:
                    c = self._count_iep(front, prev)
                    sp.set(rows=len(front), blocks=len(self._iep_blocks), count=c)
                total += c
        return total

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def _full_frontiers(self, first: int | None = None) -> Iterator[np.ndarray]:
        """Each root chunk's frontier extended through every depth (an
        empty array when a depth kills the chunk)."""
        plan = self.plan
        if plan.iep_k > 0:
            raise ValueError("enumeration requires a plan compiled with iep_k=0")
        if plan.n > self._n:
            return
        for roots in self._root_chunks(self._rooted(self.graph.vertices()), first):
            front = roots[:, None]
            prev: _CandidateSource | None = None
            for depth in range(1, plan.n):
                owner, cand, src = self._extend(front, depth, prev)
                if len(cand) == 0:
                    front = front[:0]
                    break
                front = np.concatenate([front[owner], cand[:, None]], axis=1)
                prev = src.aligned(owner) if src.materialised else None
            yield front

    def enumerate_embeddings(self, limit: int | None = None) -> Iterator[tuple[int, ...]]:
        """Yield embeddings as tuples indexed by pattern vertex.

        Chunked root processing keeps this lazy: only one chunk's
        frontier is ever alive, and with a ``limit`` the sweep starts
        from a small chunk (growing geometrically), so a
        ``limit=5`` call touches a handful of roots, not the graph.
        """
        schedule = self.plan.schedule
        inverse = [0] * len(schedule)
        for pos, v in enumerate(schedule):
            inverse[v] = pos
        remaining = float("inf") if limit is None else limit
        for front in self._full_frontiers(first=64 if limit is not None else None):
            for row in front:
                if remaining <= 0:
                    return
                remaining -= 1
                yield tuple(int(row[inverse[v]]) for v in range(len(schedule)))

    def frontier_blocks(self) -> Iterator[np.ndarray]:
        """Yield fully-extended frontier blocks, one per root chunk.

        Each block is an ``(n_embeddings, plan.n)`` int64 array whose
        column ``d`` holds the data vertex bound at schedule position
        ``d`` — the raw material of skeleton-sharing reduction
        (:mod:`repro.core.reduction`), which classifies whole blocks
        against directed arc constraints without ever materialising
        per-embedding tuples.  Requires an IEP-free plan.
        """
        for front in self._full_frontiers():
            if len(front):
                yield front


# ---------------------------------------------------------------------------
# the registered backend
# ---------------------------------------------------------------------------
# Imported at the bottom of repro.core.backend so registration happens
# whenever the registry itself is imported; importing this module first
# works too (the registry import below is cycle-free by then).
from repro.core.backend import (  # noqa: E402
    MODES,
    BackendCapabilities,
    ExecutionBackend,
    MatchContext,
    register_backend,
)


def frontier_engine_for(
    ctx: MatchContext,
    *,
    root_chunk: int = DEFAULT_ROOT_CHUNK,
    aux: "bool | str" = "auto",
) -> FrontierEngine:
    """The frontier engine for a match context — shared by
    :class:`VectorisedBackend` and the distributed task counter
    (:func:`repro.runtime.tasks.task_counter`)."""
    return FrontierEngine(ctx.graph, ctx.plan, root_chunk=root_chunk, aux=aux)


@register_backend
class VectorisedBackend(ExecutionBackend):
    """Bulk frontier execution over numpy arrays (bulk IEP in plain and directed mode).

    Constructor options: ``root_chunk`` — root vertices per frontier
    sweep (peak-memory bound; default ``DEFAULT_ROOT_CHUNK``); ``aux``
    — auxiliary-graph pruning (``"auto"`` cost-gated default, ``True``
    forced, ``False`` disabled — the ablation knob).
    """

    name = "vectorised"
    supports_enumeration = True
    capabilities = BackendCapabilities(
        modes=frozenset(MODES),
        iep_modes=frozenset({"plain", "directed"}),
        enumeration=True,
        traced=True,
    )

    def __init__(
        self, *, root_chunk: int = DEFAULT_ROOT_CHUNK, aux: "bool | str" = "auto"
    ):
        self.root_chunk = root_chunk
        self.aux = aux

    def supports(self, ctx: MatchContext) -> bool:
        return frontier_gap(ctx.plan) is None

    def count(self, ctx: MatchContext) -> int:
        self._require(ctx)
        return frontier_engine_for(ctx, root_chunk=self.root_chunk, aux=self.aux).count()

    def enumerate_embeddings(self, ctx, limit=None):
        self._require(ctx)
        return frontier_engine_for(
            ctx, root_chunk=self.root_chunk, aux=self.aux
        ).enumerate_embeddings(limit=limit)

"""Algorithm 1: 2-cycle based automorphism elimination (§IV-A).

A *restriction* is an ordered pair ``(g, s)`` of pattern vertices meaning
``id(g) > id(s)`` — the data vertex bound to ``g`` must have a larger id
than the one bound to ``s``.  A *restriction set* eliminates redundancy
when, for every embedding, exactly one member of its automorphism orbit
satisfies all restrictions.

GraphPi's contribution (vs. GraphZero) is generating **all** minimal
restriction sets instead of a single one, because different sets prune
the DFS tree at different loop depths and differ several-fold in cost.

The algorithm mirrors the paper exactly:

1. enumerate the automorphism group ``pg`` of the pattern;
2. recursively: pick any 2-cycle ``(a b)`` occurring in any surviving
   permutation, branch on adding the restriction ``id(a) > id(b)``
   (both orientations arise because the scan visits both ``a`` and
   ``b``);
3. drop every permutation that the enlarged set now *eliminates* — a
   permutation ``p`` is eliminated iff the directed graph containing
   edges ``g→s`` and ``p(g)→p(s)`` for every restriction has a cycle
   (``no_conflict``, lines 24–29);
4. when only the identity survives, ``validate`` the set by counting on
   an n-vertex complete graph: with restrictions the count must be
   ``n!/|Aut|`` (lines 19–23).  The count is carried down the recursion
   instead of taken at the leaf: each node holds, as one n!-bit int, the
   relative orderings of K_n's vertex ids that satisfy its set, and a
   child ANDs in its new restrictions' orderings.  Adding restrictions
   only removes orderings, so a child left with fewer than ``n!/|Aut|``
   has no superset that validates and its subtree is skipped.  Only
   subtrees without an accepted leaf are cut, so the accepted sets, their
   order and the ``max_sets`` cap are those of the unpruned search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations as _permutations
from math import factorial

import numpy as np

from repro.obs.trace import annotate
from repro.pattern.automorphism import automorphisms
from repro.pattern.pattern import Pattern
from repro.pattern.permutation import Perm

#: ``(g, s)`` means ``id(g) > id(s)``.
Restriction = tuple[int, int]
RestrictionSet = frozenset[Restriction]


def no_conflict(perm: Perm, res_set: frozenset[Restriction] | set[Restriction]) -> bool:
    """True iff ``perm`` is *not* eliminated by ``res_set``.

    Paper lines 24–29: build a directed graph with edges
    ``(g → s)`` and ``(perm[g] → perm[s])`` for each restriction; the
    permutation survives iff the graph is acyclic.

    Intuition: if an embedding ``e`` satisfies the restrictions, its
    automorphic image under ``perm`` satisfies them too only when the
    combined ordering constraints are consistent (acyclic).  A cycle
    means at most one of the pair {e, perm·e} can ever satisfy the set,
    i.e. the permutation's redundancy is eliminated.

    The digraph has at most ``len(perm)`` vertices, so it is held as one
    predecessor bitmask per vertex and tested by peeling: repeatedly drop
    every vertex none of whose predecessors remain; it is acyclic iff
    the peel empties it.
    """
    preds = [0] * len(perm)
    remaining = 0
    for g, s in res_set:
        a, b = perm[g], perm[s]
        preds[s] |= 1 << g
        preds[b] |= 1 << a
        remaining |= (1 << g) | (1 << s) | (1 << a) | (1 << b)
    while remaining:
        peeled = 0
        rest = remaining
        while rest:
            low = rest & -rest
            if not preds[low.bit_length() - 1] & remaining:
                peeled |= low
            rest ^= low
        if not peeled:
            return False
        remaining ^= peeled
    return True


def surviving_permutations(
    perms: list[Perm], res_set: frozenset[Restriction] | set[Restriction]
) -> list[Perm]:
    """The subset of ``perms`` not eliminated by ``res_set``."""
    return [p for p in perms if no_conflict(p, res_set)]


_rank_matrices: dict[int, np.ndarray] = {}


def rank_matrix(n: int) -> np.ndarray:
    """All n! rank assignments, in lexicographic order, as an (n!, n) int8
    array (cached per ``n``; the IEP multiplicity reads it directly,
    validation and the model's filter probabilities through
    :func:`rank_order_bits`)."""
    if n not in _rank_matrices:
        if n > 9:
            raise ValueError("pattern too large for factorial enumeration")
        _rank_matrices[n] = np.array(list(_permutations(range(n))), dtype=np.int8)
    return _rank_matrices[n]


_order_bits: dict[int, list[list[int]]] = {}


def rank_order_bits(n: int) -> list[list[int]]:
    """``bits[a][b]``: the rank-matrix rows with ``ranks[a] > ranks[b]``.

    Each entry is an n!-bit Python int, bit ``r`` standing for row ``r``
    (cached per ``n``).  Counting the rows that satisfy a conjunction of
    orderings is then an ``&`` chain and one ``int.bit_count``.
    """
    if n not in _order_bits:
        ranks = rank_matrix(n)
        _order_bits[n] = [
            [
                int.from_bytes(
                    np.packbits(ranks[:, a] > ranks[:, b], bitorder="little").tobytes(),
                    "little",
                )
                for b in range(n)
            ]
            for a in range(n)
        ]
    return _order_bits[n]


class SymmetryGroup(list):
    """A permutation group as the planner consumes it.

    It is the list of permutations, so it goes wherever a ``list[Perm]``
    does, plus the numpy views planning derives from the
    group, each computed on first use.  One planning call builds one
    group and hands it to every stage — Algorithm 1's validation,
    schedule dedup and the IEP multiplicity — so the group is enumerated
    once per plan, and the views live exactly as long as that call holds
    the group.
    """

    @cached_property
    def array(self) -> np.ndarray:
        """The permutations as an (|G|, n) index array."""
        return np.array(self, dtype=np.intp)

    @cached_property
    def coset_labels(self) -> tuple[np.ndarray, int]:
        """``(label, n_cosets)``: the coset of every rank-matrix row.

        Rows ``ranks`` and ``ranks∘σ`` (σ in the group) describe the
        same embedding orbit; a row's canonical code is the minimum of
        the encoded rows ``{ranks∘σ}`` — ``(ranks∘σ)[v] = ranks[σ[v]]``
        is a column permutation — and the label numbers those codes.
        """
        n = len(self[0])
        ranks = rank_matrix(n).astype(np.int64)
        weights = np.int64(n) ** np.arange(n - 1, -1, -1, dtype=np.int64)
        canon = None
        for sigma in self.array:
            codes = ranks[:, sigma] @ weights
            canon = codes if canon is None else np.minimum(canon, codes)
        uniq, label = np.unique(canon, return_inverse=True)
        return label, len(uniq)


def symmetry_group(pattern: Pattern, auts: list[Perm] | None = None) -> SymmetryGroup:
    """``auts`` as a :class:`SymmetryGroup` (``None``: the pattern's
    automorphism group); a group passed in is returned as is."""
    if isinstance(auts, SymmetryGroup):
        return auts
    return SymmetryGroup(automorphisms(pattern) if auts is None else auts)


def validate_restriction_set(
    pattern: Pattern, res_set: RestrictionSet, *, auts: list[Perm] | None = None
) -> bool:
    """Line 20's ``validate``: exact counting check on the complete graph.

    On K_n every injective assignment of pattern vertices to the n data
    vertices is an embedding, so the unrestricted count is n! and each
    orbit has exactly ``|Aut|`` members.  The set is correct iff the
    restricted count equals ``n!/|Aut|`` — i.e. exactly one orbit member
    satisfies the restrictions.

    We count directly over rank assignments instead of running the
    matcher: an assignment is a permutation ``ranks`` with
    ``ranks[v]`` = id of the data vertex bound to pattern vertex ``v``.

    ``auts`` overrides the automorphism group — the directed extension
    passes the directed subgroup (on the complete *digraph* every
    injective assignment of a directed pattern is likewise an embedding,
    so the identity ``count == n!/|Aut|`` carries over verbatim).
    """
    n = pattern.n_vertices
    if auts is None:
        auts = automorphisms(pattern)
    expected, remainder = divmod(factorial(n), len(auts))
    if remainder:  # |Aut| divides n! by Lagrange's theorem
        raise AssertionError("automorphism count must divide n!")
    bits = rank_order_bits(n)
    rows = (1 << factorial(n)) - 1
    for g, s in res_set:
        rows &= bits[g][s]
    return rows.bit_count() == expected


def _closed(reach: list[int], perm: Perm, added: RestrictionSet) -> list[int] | None:
    """``perm``'s :func:`no_conflict` digraph, held as its transitive
    closure ``reach`` (bit ``w`` of ``reach[v]``: some path leads from
    ``v`` to ``w``), after adding the arcs ``g → s`` and
    ``perm[g] → perm[s]`` of each restriction in ``added``; ``None``
    once an arc closes a cycle.  ``reach`` itself is left unchanged."""
    for g, s in added:
        for a, b in ((g, s), (perm[g], perm[s])):
            rb = reach[b]
            if rb >> a & 1:
                return None
            add = rb | 1 << b
            reach = [r | add if r >> a & 1 else r for r in reach]
            reach[a] |= add
    return reach


@dataclass
class RestrictionGenerator:
    """Algorithm 1 driver with memoised, count-pruned branch exploration.

    The paper's recursion revisits identical partial restriction sets
    through different permutation orders; ``_seen`` collapses those.
    ``max_sets`` caps the enumeration for patterns with huge automorphism
    groups (a 7-clique has 5 040), exactly like a production system
    would bound preprocessing.

    With ``validate`` on, every branch carries its K_n validation count
    (module docstring, step 4) and is cut as soon as that count drops
    below ``n!/|Aut|``.  The cut is exact: a pruned set's supersets are
    all pruned too, wherever the search reaches them, so only branches
    that could never accept a leaf are skipped.  ``explored`` and
    ``pruned`` count the branches the last :meth:`generate` descended
    into and cut.  Without ``validate`` nothing is pruned and no
    orderings are built, so patterns past the rank matrix's 9 vertices
    still run.

    Each surviving permutation also carries the transitive closure of
    its ``no_conflict`` digraph, so a child tests only the arcs its new
    restrictions add: the permutation is eliminated exactly when one of
    them closes a cycle, which is what re-peeling the whole set in
    :func:`no_conflict` would find.
    """

    pattern: Pattern
    validate: bool = True
    max_sets: int | None = None
    #: Override the automorphism group (the directed and labeled planners
    #: pass their subgroups; ``None`` = the full undirected group).
    auts: list[Perm] | None = None
    explored: int = field(default=0, init=False)
    pruned: int = field(default=0, init=False)
    _seen: set[RestrictionSet] = field(default_factory=set, repr=False)
    _results: list[RestrictionSet] = field(default_factory=list, repr=False)
    _order_bits: list[list[int]] | None = field(default=None, repr=False)
    _expected: int = field(default=0, repr=False)

    def generate(self) -> list[RestrictionSet]:
        """All (deduplicated) restriction sets that reduce Aut to identity."""
        self._seen.clear()
        self._results.clear()
        self.explored = self.pruned = 0
        perms = symmetry_group(self.pattern, self.auts)
        if len(perms) == 1:
            # Asymmetric pattern: the empty set is already complete.
            return [frozenset()]
        n = self.pattern.n_vertices
        rows = None
        if self.validate:
            self._order_bits = rank_order_bits(n)
            self._expected = factorial(n) // len(perms)
            rows = (1 << factorial(n)) - 1
        # (permutation, its 2-cycles as (vertex, image) in vertex order,
        # closure of its no_conflict digraph) per surviving permutation
        survivors = [
            (perm, tuple((v, w) for v, w in enumerate(perm) if w != v and perm[w] == v), [0] * n)
            for perm in perms
        ]
        self._generate(survivors, frozenset(), rows)
        # Deterministic order: smaller sets first, then lexicographic.
        uniq = sorted(set(self._results), key=lambda rs: (len(rs), sorted(rs)))
        return uniq

    def _capped(self) -> bool:
        return self.max_sets is not None and len(self._results) >= self.max_sets

    # -- the recursive `generate` of Algorithm 1 -------------------------
    def _generate(self, survivors: list, res_set: RestrictionSet, rows: int | None) -> None:
        """Extend ``res_set``, which ``survivors`` survive and whose
        satisfying K_n orderings are ``rows`` (``None``: not validating)."""
        if self._capped():
            return
        if len(survivors) <= 1:
            # Only the identity survives; keep the set if it validates.
            if rows is None or rows.bit_count() == self._expected:
                self._results.append(res_set)
            return
        found_2cycle = False
        for _, swaps, _ in survivors:
            # line 11: every 2-cycle of every surviving permutation
            for swap in swaps:
                found_2cycle = True
                self._branch(survivors, res_set, rows, frozenset((swap,)))
                if self._capped():
                    return
        if not found_2cycle:
            self._generate_orbit_anchor(survivors, res_set, rows)

    def _branch(
        self,
        survivors: list,
        res_set: RestrictionSet,
        rows: int | None,
        added: RestrictionSet,
    ) -> None:
        """Recurse into ``res_set | added`` unless it was seen before or
        its validation count already rules out every superset."""
        new_set = res_set | added
        if new_set in self._seen:
            return
        self._seen.add(new_set)
        if rows is not None:
            for g, s in added:
                rows &= self._order_bits[g][s]
            if rows.bit_count() < self._expected:
                self.pruned += 1
                return
        self.explored += 1
        remaining = []
        for perm, swaps, reach in survivors:
            reach = _closed(reach, perm, added)
            if reach is not None:
                remaining.append((perm, swaps, reach))
        self._generate(remaining, new_set, rows)

    def _generate_orbit_anchor(
        self, survivors: list, res_set: RestrictionSet, rows: int | None
    ) -> None:
        """Fallback when no surviving permutation contains a 2-cycle.

        The paper's scan (lines 9–12) assumes some survivor exposes a
        2-cycle, which holds for the full automorphism group of every
        undirected pattern it evaluates — but *subgroups* can be 2-cycle
        free: the direction-preserving group of a directed n-cycle is the
        pure rotation group C_n, whose non-identity elements are single
        n-cycles.  (§II-A claims the directed extension is easy; this is
        the one genuine gap.)

        The classic orbit-anchoring step of symmetry breaking
        [Grochow–Kellis] covers it: pick a vertex ``v`` in a non-trivial
        orbit of the surviving group and force it to carry the minimum id
        of the orbit — restrictions ``id(u) > id(v)`` for every other
        orbit member ``u``.  Any survivor moving ``v`` to some ``u`` is
        then eliminated (``no_conflict`` sees the 2-edge cycle
        ``u → v`` / ``v → u``), so the group strictly shrinks and the
        recursion terminates.  Each anchor choice yields a different
        candidate set, preserving GraphPi's multiple-sets property;
        ``validate`` still gates final acceptance.
        """
        from repro.pattern.automorphism import orbits

        for orbit in orbits([perm for perm, _, _ in survivors]):
            if len(orbit) <= 1:
                continue
            for v in orbit:
                self._branch(
                    survivors, res_set, rows, frozenset((u, v) for u in orbit if u != v)
                )
                if self._capped():
                    return


def generate_restriction_sets(
    pattern: Pattern,
    *,
    validate: bool = True,
    max_sets: int | None = None,
    auts: list[Perm] | None = None,
) -> list[RestrictionSet]:
    """Convenience wrapper for :class:`RestrictionGenerator`.

    Returns at least one set for any pattern (the empty set when the
    pattern is asymmetric).  ``auts`` passes the planning call's
    already-enumerated automorphism group.  The branches the search
    descended into and cut (``explored``, ``pruned``) annotate the
    caller's open trace span.
    """
    gen = RestrictionGenerator(pattern, validate=validate, max_sets=max_sets, auts=auts)
    sets = gen.generate()
    annotate(explored=gen.explored, pruned=gen.pruned)
    if not sets:
        raise RuntimeError(
            f"Algorithm 1 produced no valid restriction set for {pattern!r}; "
            "this should be impossible for a finite permutation group"
        )
    return sets


def restriction_overcount_factor(pattern: Pattern, res_set) -> int:
    """How many automorphisms survive ``res_set`` (the `no_conflict` count).

    This is the quantity §IV-D *describes* for the IEP division, but it
    is only an upper bound on the true per-embedding multiplicity (for
    the triangle with one kept restriction it yields 5 where the true
    factor is 3).  The engine therefore uses
    :func:`iep_overcount_multiplicity` instead; this function is kept
    for the paper-fidelity tests that document the discrepancy.
    """
    perms = automorphisms(pattern)
    return len(surviving_permutations(perms, frozenset(res_set)))


class NonUniformOvercountError(ValueError):
    """Raised when a partial restriction set over/under-counts unevenly.

    If the number of orbit members satisfying the kept restrictions is
    not the same for every embedding, no constant divisor can correct
    the IEP total; the caller must shrink the IEP suffix (``iep_k``)
    until the dropped set is empty.
    """


_multiplicity_cache: dict[tuple, int] = {}


def iep_overcount_multiplicity(pattern: Pattern, kept_set, *, auts=None) -> int:
    """Exact per-embedding multiplicity under a *partial* restriction set.

    Every embedding's automorphism orbit corresponds to a coset
    ``{ranks∘σ : σ ∈ Aut}`` of rank bijections; the IEP total counts each
    embedding once per orbit member satisfying ``kept_set``.  This
    function labels all n! rank bijections (n ≤ 9 for patterns) by coset
    (:attr:`SymmetryGroup.coset_labels`, computed once per group object)
    and returns the satisfying count per coset — verifying it is the
    same for every coset (else :class:`NonUniformOvercountError`).

    A complete valid set yields 1; the empty set yields ``|Aut|``.

    ``auts`` overrides the group (the directed extension passes the
    direction-preserving subgroup — the coset argument only needs *a*
    group acting on the vertices, not specifically the undirected one).
    Passing the planning call's :class:`SymmetryGroup` shares its coset
    labelling across every configuration the call compiles.
    """
    kept = frozenset(kept_set)
    key = (
        pattern._adj_bits,
        kept,
        None if auts is None else tuple(tuple(a) for a in auts),
    )
    if key in _multiplicity_cache:
        return _multiplicity_cache[key]

    group = symmetry_group(pattern, auts)
    if not kept:
        _multiplicity_cache[key] = len(group)
        return len(group)

    ranks = rank_matrix(pattern.n_vertices)
    sat = np.ones(len(ranks), dtype=bool)
    for g, s in kept:
        sat &= ranks[:, g] > ranks[:, s]
    label, n_cosets = group.coset_labels
    per_coset = np.bincount(label[sat], minlength=n_cosets)
    lo, hi = int(per_coset.min()), int(per_coset.max())
    if lo != hi:
        raise NonUniformOvercountError(
            f"kept restrictions {sorted(kept)} give per-orbit multiplicities "
            f"in [{lo}, {hi}] for pattern {pattern.name or pattern!r}; "
            "no constant IEP divisor exists"
        )
    _multiplicity_cache[key] = lo
    return lo


def check_restrictions_applicable(pattern: Pattern, res_set) -> None:
    """Validate vertex indices and irreflexivity of a user-supplied set."""
    n = pattern.n_vertices
    for g, s in res_set:
        if not (0 <= g < n and 0 <= s < n):
            raise ValueError(f"restriction ({g},{s}) references a vertex outside 0..{n - 1}")
        if g == s:
            raise ValueError(f"restriction ({g},{s}) is reflexive")

"""2-phase computation-avoid schedule generation (§IV-B).

A *schedule* is an order in which the pattern's vertices are searched;
the matcher is a nest of loops, one per scheduled vertex, whose candidate
set is the intersection of the neighbourhoods of its already-bound
pattern neighbours.

Of the n! orders, most are terrible.  GraphPi filters them in two
phases:

* **Phase 1 (connected prefix)** — the i-th vertex must be adjacent to
  at least one of the first i-1.  Otherwise its candidate set is the
  whole vertex set |V| instead of a (much smaller) neighbourhood
  intersection.
* **Phase 2 (independent suffix)** — let k be the size of the largest
  pairwise-nonadjacent vertex set.  Keep only schedules whose *last* k
  vertices are pairwise non-adjacent: the expensive intersections then
  happen in outer loops, which run fewer times, and the k innermost
  loops intersect nothing — which is also precisely the shape the IEP
  optimisation (§IV-D) needs.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.restrictions import symmetry_group
from repro.pattern.pattern import Pattern
from repro.pattern.permutation import Perm

Schedule = tuple[int, ...]


def is_connected_prefix(pattern: Pattern, schedule: Sequence[int]) -> bool:
    """Phase-1 test: every vertex after the first touches an earlier one."""
    for i in range(1, len(schedule)):
        if not any(pattern.has_edge(schedule[i], schedule[j]) for j in range(i)):
            return False
    return True


def independent_suffix_size(pattern: Pattern) -> int:
    """k of phase 2: the maximum independent set size of the pattern."""
    return pattern.max_independent_set_size()


def has_independent_suffix(pattern: Pattern, schedule: Sequence[int], k: int) -> bool:
    """Phase-2 test: the last k scheduled vertices are pairwise non-adjacent."""
    if k <= 1:
        return True
    return pattern.is_independent_set(schedule[-k:])


def all_schedules(pattern: Pattern) -> Iterator[Schedule]:
    """All n! vertex orders (the raw space phases 1–2 filter)."""
    return permutations(range(pattern.n_vertices))


def generate_schedules(
    pattern: Pattern,
    *,
    phase1: bool = True,
    phase2: bool = True,
    dedup_automorphic: bool = False,
    auts: list[Perm] | None = None,
) -> list[Schedule]:
    """The paper's schedule generator.

    ``phase1``/``phase2`` toggles exist for the ablation benchmark.  If
    phase 2 would reject *every* phase-1 survivor (possible only for
    degenerate patterns), it is skipped — the system must always return
    at least one runnable schedule.

    ``dedup_automorphic`` keeps one representative per automorphism
    orbit of schedules: relabelling a schedule by an automorphism yields
    an identical loop structure, so the duplicates only inflate the
    space the performance model must score.  ``auts`` passes the
    planning call's already-enumerated group to the dedup.
    """
    if not pattern.is_connected() and phase1:
        raise ValueError(
            "phase-1 generation requires a connected pattern; "
            f"{pattern!r} is disconnected"
        )
    survivors: list[Schedule] = [
        s for s in all_schedules(pattern) if not phase1 or is_connected_prefix(pattern, s)
    ]
    if phase2:
        k = independent_suffix_size(pattern)
        filtered = [s for s in survivors if has_independent_suffix(pattern, s, k)]
        if filtered:
            survivors = filtered
    if dedup_automorphic:
        survivors = dedup_schedules(pattern, survivors, auts=auts)
    return survivors


#: bound on the (group chunk × schedules) code block dedup materialises.
_DEDUP_BLOCK = 1 << 18


def dedup_schedules(
    pattern: Pattern, schedules: Iterable[Schedule], *, auts: list[Perm] | None = None
) -> list[Schedule]:
    """Keep the first schedule of each automorphism orbit, in input order.

    Two schedules s, s' are equivalent when s' = σ ∘ s for an
    automorphism σ: the loop nests are identical up to renaming pattern
    vertices, so cost and result coincide for correspondingly renamed
    restriction sets.  ``auts`` overrides the group (the directed
    planner passes the direction-preserving subgroup).

    A schedule's canonical code is the minimum over the group of the
    base-n encoding of ``σ ∘ s``; the encoding preserves lexicographic
    order, so this is the orbit's lexicographically least member.  The
    code ``Σ_i σ[s_i]·n^(n-1-i)`` regroups as ``Σ_v σ[v]·n^(n-1-pos_s(v))``,
    so the codes of every (σ, s) pair are one matrix product of the group
    with each schedule's per-vertex weights.
    """
    schedules = list(schedules)
    if not schedules:
        return []
    group = symmetry_group(pattern, auts).array
    order = np.array(schedules, dtype=np.intp)
    m, n = order.shape
    weights = np.int64(n) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    by_vertex = weights[np.argsort(order, axis=1)].T  # (n, m)
    chunk = max(1, _DEDUP_BLOCK // m)
    canon = None
    for start in range(0, len(group), chunk):
        codes = (group[start : start + chunk] @ by_vertex).min(axis=0)
        canon = codes if canon is None else np.minimum(canon, codes)
    _, first = np.unique(canon, return_index=True)
    return [schedules[i] for i in np.sort(first)]


def schedule_dependencies(pattern: Pattern, schedule: Sequence[int]) -> list[tuple[int, ...]]:
    """For each depth i, the earlier depths whose vertices are pattern-adjacent.

    ``deps[i]`` drives the candidate set of loop i: intersect the data
    neighbourhoods of the vertices bound at those depths (empty ⇒ the
    candidate set is all of V, which phase 1 avoids except at depth 0).
    """
    adj = pattern._adj_bits
    return [
        tuple(j for j in range(i) if adj[v] >> schedule[j] & 1)
        for i, v in enumerate(schedule)
    ]


def intersection_free_suffix_length(pattern: Pattern, schedule: Sequence[int]) -> int:
    """The number of trailing loops with at most one dependency each *and*
    pairwise non-adjacent scheduled vertices — the k that IEP can absorb.

    This is the per-schedule realisable k: the paper's phase-2 k is a
    pattern-level upper bound, but a specific schedule may realise less.
    """
    n = len(schedule)
    best = 0
    for k in range(1, n):  # at least one outer loop must remain
        suffix = schedule[n - k :]
        if pattern.is_independent_set(suffix):
            best = k
        else:
            break
    return best

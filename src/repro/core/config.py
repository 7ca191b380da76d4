"""Configurations and compiled execution plans.

The paper (§IV-C): *"we use configuration to denote a combination of a
schedule and a set of restrictions.  A pattern indicates what kind of
subgraph structures to find, while a configuration indicates how to find
them efficiently."*

``Configuration`` is the declarative object the optimiser ranks;
``ExecutionPlan`` is its compiled form consumed by the interpreter
(:mod:`repro.core.engine`), the code generator
(:mod:`repro.core.codegen`) and the performance model.

Compilation resolves, per loop depth ``i``:

* ``deps[i]``       — earlier depths whose bound vertices' neighbourhoods
  are intersected to form the candidate set (pattern adjacency);
* ``lower[i]``      — earlier depths ``j`` with restriction
  ``id(vertex_i) > id(vertex_j)`` → candidates must be ``> value_j``;
* ``upper[i]``      — earlier depths ``j`` with restriction
  ``id(vertex_j) > id(vertex_i)`` → candidates must be ``< value_j``.

On the sorted candidate arrays both bound kinds become binary-search
slices — the generalisation of the paper's ``break`` statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.restrictions import (
    Restriction,
    check_restrictions_applicable,
    iep_overcount_multiplicity,
)
from repro.core.schedule import (
    Schedule,
    intersection_free_suffix_length,
    schedule_dependencies,
)
from repro.pattern.pattern import Pattern


@dataclass(frozen=True)
class Configuration:
    """A (schedule, restriction set) pair for a pattern."""

    pattern: Pattern
    schedule: Schedule
    restrictions: frozenset[Restriction]

    def __post_init__(self):
        if sorted(self.schedule) != list(range(self.pattern.n_vertices)):
            raise ValueError(
                f"schedule {self.schedule!r} is not a permutation of the "
                f"{self.pattern.n_vertices} pattern vertices"
            )
        check_restrictions_applicable(self.pattern, self.restrictions)

    def compile(self, iep_k: int = 0) -> "ExecutionPlan":
        return compile_plan(self, iep_k=iep_k)

    def describe(self) -> str:
        res = ", ".join(f"id({g})>id({s})" for g, s in sorted(self.restrictions))
        return f"schedule={list(self.schedule)} restrictions=[{res}]"


@dataclass(frozen=True)
class ExecutionPlan:
    """Compiled loop-nest description (see module docstring).

    ``iep_k`` > 0 means the innermost ``iep_k`` loops are replaced by an
    Inclusion–Exclusion evaluation; ``iep_overcount`` is the paper's
    ``x`` divisor correcting for inner restrictions that were dropped.
    """

    config: Configuration
    deps: tuple[tuple[int, ...], ...]
    lower: tuple[tuple[int, ...], ...]
    upper: tuple[tuple[int, ...], ...]
    iep_k: int = 0
    iep_overcount: int = 1
    dropped_restrictions: frozenset[Restriction] = frozenset()

    @property
    def n(self) -> int:
        return len(self.deps)

    @property
    def schedule(self):
        """The schedule the loop depths bind, outermost first."""
        return self.config.schedule

    @property
    def n_loops(self) -> int:
        """Loop depths actually executed (IEP absorbs the last iep_k)."""
        return self.n - self.iep_k

    def restriction_depths(self) -> list[tuple[int, int | None, bool]]:
        """Flattened (depth, partner_depth, is_lower) rows, for reporting."""
        rows = []
        for i in range(self.n):
            for j in self.lower[i]:
                rows.append((i, j, True))
            for j in self.upper[i]:
                rows.append((i, j, False))
        return rows


def compile_plan(config: Configuration, *, iep_k: int = 0, auts=None) -> ExecutionPlan:
    """Resolve schedule+restrictions into per-depth operations.

    ``iep_k`` requests IEP over the innermost k loops.  Requirements
    (validated here): the last k scheduled vertices must be pairwise
    non-adjacent — this is exactly what phase-2 schedules guarantee.

    Restriction placement with IEP (a refinement over §IV-D, which drops
    every restriction touching the inner loops):

    * outer↔outer — enforced in the loops, as usual;
    * outer↔inner — enforced as *range bounds* on that inner vertex's
      IEP candidate set (IEP is valid for arbitrary finite sets, so
      bounding S_i loses nothing);
    * inner↔inner — genuinely unenforceable (the tuples are never
      enumerated); dropped and compensated by the exact per-orbit
      multiplicity divisor ``iep_overcount``
      (:func:`repro.core.restrictions.iep_overcount_multiplicity`).
      If the multiplicity is not uniform across orbits no divisor
      exists and compilation raises
      :class:`repro.core.restrictions.NonUniformOvercountError`;
      callers retry with a smaller k (k = 1 never drops anything).

    ``auts`` overrides the automorphism group used for the overcount
    multiplicity — the labeled pipeline passes the label-preserving
    subgroup (its restriction sets break exactly that group, so its
    cosets are the orbits being overcounted).
    """
    pattern, schedule = config.pattern, config.schedule
    n = pattern.n_vertices
    if not 0 <= iep_k < n:
        raise ValueError(f"iep_k={iep_k} out of range for a {n}-vertex pattern")
    if iep_k > 0:
        realisable = intersection_free_suffix_length(pattern, schedule)
        if iep_k > realisable:
            raise ValueError(
                f"iep_k={iep_k} but schedule {schedule!r} only has an "
                f"independent suffix of length {realisable}"
            )

    deps = tuple(schedule_dependencies(pattern, schedule))
    position = {v: i for i, v in enumerate(schedule)}

    inner_positions = set(range(n - iep_k, n)) if iep_k else set()
    lower: list[list[int]] = [[] for _ in range(n)]
    upper: list[list[int]] = [[] for _ in range(n)]
    dropped: set[Restriction] = set()
    for g, s in config.restrictions:
        pg, ps = position[g], position[s]
        late, early = (pg, ps) if pg > ps else (ps, pg)
        if late in inner_positions and early in inner_positions:
            # inner↔inner: unenforceable under IEP.
            dropped.add((g, s))
            continue
        if late == pg:
            # id(g) > id(s), g bound later: candidate at depth pg must be
            # greater than the value bound at depth ps.
            lower[late].append(early)
        else:
            upper[late].append(early)

    overcount = 1
    if dropped:
        kept = frozenset(config.restrictions) - frozenset(dropped)
        overcount = iep_overcount_multiplicity(pattern, kept, auts=auts)

    return ExecutionPlan(
        config=config,
        deps=deps,
        lower=tuple(tuple(sorted(x)) for x in lower),
        upper=tuple(tuple(sorted(x)) for x in upper),
        iep_k=iep_k,
        iep_overcount=overcount,
        dropped_restrictions=frozenset(dropped),
    )


def enumerate_configurations(
    pattern: Pattern,
    schedules: Sequence[Schedule],
    restriction_sets: Sequence[frozenset[Restriction]],
) -> list[Configuration]:
    """The full candidate space the performance model ranks."""
    return [
        Configuration(pattern, s, frozenset(r))
        for s in schedules
        for r in restriction_sets
    ]

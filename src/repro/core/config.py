"""Configurations and compiled execution plans.

The paper (§IV-C): *"we use configuration to denote a combination of a
schedule and a set of restrictions.  A pattern indicates what kind of
subgraph structures to find, while a configuration indicates how to find
them efficiently."*

``Configuration`` is the declarative object the optimiser ranks;
``ExecutionPlan`` is its compiled form.  There is one plan type for
every matching mode: :func:`compile_plan` lowers a configuration plus
the mode's facts (the directed pattern's arcs, the wanted labels,
vertex-induced semantics) into per-depth operations, and every executor
— the interpreter (:mod:`repro.core.engine`), the frontier engine
(:mod:`repro.core.vectorised`) and the code generator
(:mod:`repro.core.codegen`) — reads those operations without knowing
the mode.  Per loop depth ``i``:

* ``refs[i]``       — the dependency refs: ``(j, OUT)`` means the
  candidate lies in the out-row of the value bound at depth ``j``,
  ``(j, IN)`` in its in-row.  An undirected graph has one row per
  vertex and serves both; an antiparallel pattern pair gives two refs
  on one column;
* ``deps[i]``       — the undirected union of the refs' columns, which
  the performance model prices;
* ``labels[i]``     — the data label the candidate must carry (``None``
  when the pattern is unlabeled);
* ``anti[i]``       — earlier depths the pattern does *not* connect to
  depth ``i`` (vertex-induced semantics only): candidates adjacent to
  their values are excluded;
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
from repro.graph.digraph import DiGraph
from repro.graph.labeled import LabeledGraph
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


#: the adjacency a dependency ref reads: the bound vertex's out-row (an
#: undirected graph's only row) or its in-row.
OUT, IN = 0, 1


@dataclass(frozen=True)
class ExecutionPlan:
    """Compiled loop-nest description (see module docstring).

    ``mode`` names the facts the plan was lowered with — ``"plain"``,
    ``"induced"``, ``"labeled"`` or ``"directed"`` — and so the graph
    kind it runs on; the executors read the per-depth operations only.
    ``iep_k`` > 0 means the innermost ``iep_k`` loops are replaced by an
    Inclusion–Exclusion evaluation; ``iep_overcount`` is the paper's
    ``x`` divisor correcting for inner restrictions that were dropped.
    """

    config: Configuration
    deps: tuple[tuple[int, ...], ...]
    lower: tuple[tuple[int, ...], ...]
    upper: tuple[tuple[int, ...], ...]
    refs: tuple[tuple[tuple[int, int], ...], ...]
    labels: tuple[int | None, ...]
    anti: tuple[tuple[int, ...], ...]
    mode: str = "plain"
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


def compile_plan(
    config: Configuration,
    *,
    iep_k: int = 0,
    auts=None,
    dipattern=None,
    labels: Sequence[int] | None = None,
    induced: bool = False,
) -> ExecutionPlan:
    """Resolve schedule+restrictions into per-depth operations.

    The mode's facts select the lowering (at most one of them):

    * ``dipattern`` — the :class:`~repro.pattern.directed.DiPattern`
      whose skeleton ``config.pattern`` is: an arc ``earlier → new``
      becomes an ``OUT`` ref, ``new → earlier`` an ``IN`` ref;
    * ``labels`` — the wanted data label of each pattern vertex
      (:attr:`~repro.pattern.labeled.LabeledPattern.labels`), placed at
      the depth that binds the vertex;
    * ``induced`` — vertex-induced semantics: each depth's anti columns
      are the earlier depths the pattern does not connect to it.

    ``iep_k`` requests IEP over the innermost k loops.  Requirements
    (validated here): the last k scheduled vertices must be pairwise
    non-adjacent — this is exactly what phase-2 schedules guarantee —
    and the plan must not be induced (anti-edges make the inner
    candidate sets interact, which Inclusion–Exclusion cannot count).

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
    multiplicity: the group the configuration's restriction set breaks.
    It defaults to the mode's group — the direction-preserving one with
    ``dipattern``, the label-preserving one with ``labels``.
    """
    pattern, schedule = config.pattern, config.schedule
    n = pattern.n_vertices
    if sum((dipattern is not None, labels is not None, induced)) > 1:
        raise ValueError(
            "a plan is lowered with at most one mode's facts: labeled, "
            "directed or induced matching combined is not supported"
        )
    if not 0 <= iep_k < n:
        raise ValueError(f"iep_k={iep_k} out of range for a {n}-vertex pattern")
    if iep_k > 0:
        if induced:
            raise ValueError(
                "induced matching requires a plan compiled with iep_k=0: "
                "anti-edges make the inner candidate sets interact"
            )
        realisable = intersection_free_suffix_length(pattern, schedule)
        if iep_k > realisable:
            raise ValueError(
                f"iep_k={iep_k} but schedule {schedule!r} only has an "
                f"independent suffix of length {realisable}"
            )

    deps = tuple(schedule_dependencies(pattern, schedule))
    if dipattern is None:
        refs = tuple(tuple((j, OUT) for j in cols) for cols in deps)
    else:
        if dipattern.skeleton().edges != pattern.edges:
            raise ValueError(f"{pattern!r} is not the skeleton of {dipattern!r}")
        refs = tuple(
            tuple((j, OUT) for j in range(d) if dipattern.has_arc(schedule[j], v))
            + tuple((j, IN) for j in range(d) if dipattern.has_arc(v, schedule[j]))
            for d, v in enumerate(schedule)
        )
    if induced:
        anti = tuple(
            tuple(j for j in range(d) if not pattern.has_edge(v, schedule[j]))
            for d, v in enumerate(schedule)
        )
    else:
        anti = ((),) * n
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
        if auts is None and dipattern is not None:
            from repro.pattern.directed import directed_automorphisms

            auts = directed_automorphisms(dipattern)
        elif auts is None and labels is not None:
            from repro.pattern.labeled import LabeledPattern, labeled_automorphisms

            auts = labeled_automorphisms(LabeledPattern(pattern, tuple(labels)))
        kept = frozenset(config.restrictions) - frozenset(dropped)
        overcount = iep_overcount_multiplicity(pattern, kept, auts=auts)

    if dipattern is not None:
        mode = "directed"
    elif labels is not None:
        mode = "labeled"
    else:
        mode = "induced" if induced else "plain"
    return ExecutionPlan(
        config=config,
        deps=deps,
        lower=tuple(tuple(sorted(x)) for x in lower),
        upper=tuple(tuple(sorted(x)) for x in upper),
        refs=refs,
        labels=tuple(labels[v] for v in schedule) if labels is not None else (None,) * n,
        anti=anti,
        mode=mode,
        iep_k=iep_k,
        iep_overcount=overcount,
        dropped_restrictions=frozenset(dropped),
    )


def bind_graph(graph, plan: ExecutionPlan):
    """``(structure, (out rows, in rows), labels)`` of ``graph`` for ``plan``.

    ``structure`` is the graph whose adjacency the plan's refs read (a
    labeled graph's underlying structure); the row functions map a
    vertex to its sorted out- and in-row — one function for both on an
    undirected graph; ``labels`` is the data label array when the plan
    wants labels, else ``None``.  Which graph kind serves which mode is
    checked by :class:`~repro.core.backend.MatchContext`.
    """
    labels = graph.labels if plan.mode == "labeled" else None
    if isinstance(graph, LabeledGraph):
        graph = graph.graph
    if isinstance(graph, DiGraph):
        return graph, (graph.out_neighbors, graph.in_neighbors), labels
    return graph, (graph.neighbors, graph.neighbors), labels


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

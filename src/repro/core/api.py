"""Public API: plan and run pattern matching the GraphPi way.

The paper's user contract (§III): *"Users only need to input a pattern
and a data graph in the form of adjacency lists to run GraphPi."*  The
modern surface is the query/session pair::

>>> from repro import MatchQuery, MatchSession, load_dataset, get_pattern
>>> session = MatchSession(load_dataset("wiki-vote", scale=0.2))
>>> session.count(MatchQuery(get_pattern("house")))   # plans + counts
>>> session.count(MatchQuery(get_pattern("house")))   # plan-cache hit

This module keeps the historical entry points — :class:`PatternMatcher`,
:func:`count_pattern`, :func:`match_pattern` — as **thin shims** over
that session layer: they build a :class:`~repro.core.query.MatchQuery`
and dispatch through :func:`~repro.core.session.get_session`, so
repeated counts against the same graph object reuse cached plans
instead of re-running the preprocessing pipeline (Algorithm 1
restrictions, 2-phase schedules, model ranking, code generation — what
Table III shows is expensive) on every call.

``PatternMatcher.plan`` still exposes the whole preprocessing pipeline
together with its timings (Table III measures exactly this); the
:class:`~repro.core.session.PlanReport` it returns now lives in the
session layer and is re-exported here unchanged.
"""

from __future__ import annotations

from repro.core.backend import ExecutionBackend, MatchContext
from repro.core.query import MatchQuery, MatchResult  # noqa: F401 (re-export)
from repro.core.restrictions import RestrictionSet, generate_restriction_sets
from repro.core.schedule import generate_schedules
from repro.core.session import (  # noqa: F401 (PlanReport re-exported)
    MatchSession,
    PlanEntry,
    PlanReport,
    get_session,
    plan_plain,
    resolve_execution_backend,
)
from repro.graph.csr import Graph
from repro.graph.stats import GraphStats
from repro.pattern.pattern import Pattern


class PatternMatcher:
    """Plans and executes matching of one pattern on data graphs.

    A thin shim over the session layer: each :meth:`count`/:meth:`match`
    builds a declarative :class:`~repro.core.query.MatchQuery` and runs
    it through the shared :class:`~repro.core.session.MatchSession` of
    the target graph, so identical repeat calls hit the plan cache.

    Parameters
    ----------
    pattern:
        The pattern to match; must be connected.
    max_restriction_sets:
        Cap on Algorithm 1's enumeration.  Patterns with large
        automorphism groups generate thousands of valid sets (3 072 for
        a 7-vertex near-clique) and each must be scored against every
        schedule; the default of 64 keeps preprocessing sub-second in
        pure Python while retaining plenty of choice.  Pass ``None``
        for the unbounded paper behaviour.
    dedup_schedules:
        Collapse automorphism-equivalent schedules before ranking
        (halves-to-quarters the model's work without changing the
        optimum; see ``repro.core.schedule.dedup_schedules``).
    use_codegen:
        Generate specialised code (the paper's approach) for the plan
        reports :meth:`plan` returns.  ``use_codegen=False`` also makes
        the *default* backend selection interpret (an explicit
        ``backend=`` still wins).
    backend:
        Default execution backend for :meth:`count`/:meth:`match` — a
        registered name (``"interpreter"``, ``"preslice"``,
        ``"compiled"``, ``"parallel"``, ``"vectorised"``, ...), an
        :class:`~repro.core.backend.ExecutionBackend` instance, or
        ``None`` for the default order (the vectorised frontier engine
        when it supports the plan, then generated code, then the
        interpreter).
    """

    DEFAULT_MAX_RESTRICTION_SETS = 64

    def __init__(
        self,
        pattern: Pattern,
        *,
        max_restriction_sets: int | None = DEFAULT_MAX_RESTRICTION_SETS,
        dedup_schedules: bool = True,
        use_codegen: bool = True,
        backend: str | ExecutionBackend | None = None,
    ):
        if not pattern.is_connected():
            raise ValueError("pattern matching requires a connected pattern")
        self.pattern = pattern
        self.max_restriction_sets = max_restriction_sets
        self.dedup_schedules = dedup_schedules
        self.use_codegen = use_codegen
        self.backend = backend
        self._restriction_cache: list[RestrictionSet] | None = None
        self._schedule_cache: list | None = None

    def _query(
        self,
        *,
        use_iep: bool | None,
        codegen: bool | None = None,
        backend: str | ExecutionBackend | None = None,
    ) -> MatchQuery:
        """The declarative form of one call against this matcher.

        The effective backend preference (call-level wins over the
        matcher default) is part of the query so planning can consult
        its capabilities — e.g. whether to pre-generate a kernel.
        """
        return MatchQuery(
            pattern=self.pattern,
            mode="plain",
            semantics="edge",
            use_iep=use_iep,
            backend=backend if backend is not None else self.backend,
            max_restriction_sets=self.max_restriction_sets,
            dedup_schedules=self.dedup_schedules,
            use_codegen=self.use_codegen if codegen is None else codegen,
        )

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------
    def restriction_sets(self) -> list[RestrictionSet]:
        if self._restriction_cache is None:
            self._restriction_cache = generate_restriction_sets(
                self.pattern, max_sets=self.max_restriction_sets
            )
        return self._restriction_cache

    def schedules(self) -> list:
        if self._schedule_cache is None:
            self._schedule_cache = generate_schedules(
                self.pattern, dedup_automorphic=self.dedup_schedules
            )
        return self._schedule_cache

    def plan(
        self,
        graph: Graph | None = None,
        *,
        stats: GraphStats | None = None,
        use_iep: bool = False,
        codegen: bool | None = None,
    ) -> PlanReport:
        """Run the full preprocessing pipeline and pick a configuration.

        Provide either a graph (stats are computed once per session and
        the resulting plan is cached there) or precomputed ``stats``
        (planned directly, no cache).  ``use_iep`` asks the model to
        score configurations with the innermost independent loops
        replaced by IEP.  With codegen on, the report carries the
        generated kernel even when the session's default execution
        (the vectorised backend) planned without one.
        """
        if stats is None:
            if graph is None:
                raise ValueError("plan() needs a graph or precomputed GraphStats")
            query = self._query(use_iep=use_iep, codegen=codegen)
            return get_session(graph).plan_for(query, kernel=query.use_codegen).report
        do_codegen = self.use_codegen if codegen is None else codegen
        return plan_plain(
            self.pattern,
            stats,
            use_iep=use_iep,
            max_restriction_sets=self.max_restriction_sets,
            dedup_schedules=self.dedup_schedules,
            codegen=do_codegen,
            restriction_sets=self.restriction_sets(),
            schedules=self.schedules(),
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _select(
        self,
        ctx: MatchContext,
        backend: str | ExecutionBackend | None,
        *,
        for_enumeration: bool = False,
    ) -> ExecutionBackend:
        # The explicit-report execution paths share the session layer's
        # selection policy (one implementation, no drift).
        requested = backend if backend is not None else self.backend
        return resolve_execution_backend(
            ctx,
            requested,
            use_codegen=self.use_codegen,
            for_enumeration=for_enumeration,
        )

    def count(
        self,
        graph: Graph,
        *,
        use_iep: bool | None = None,
        report: PlanReport | None = None,
        backend: str | ExecutionBackend | None = None,
    ) -> int:
        """Count distinct embeddings of the pattern in ``graph``.

        ``backend`` overrides the matcher's default for this call; all
        registered backends return identical counts (the equivalence
        tests pin this), they only differ in how the loop nest runs.
        ``use_iep=None`` (the default) resolves per backend capability:
        IEP on, unless the preferred backend declares it cannot execute
        IEP-suffix plans; an explicit bool forces it.  An explicit
        ``report`` executes that exact plan; otherwise the graph's
        session plans once and replays the cached plan on every
        identical call.
        """
        if report is not None:
            ctx = MatchContext(graph=graph, plan=report.plan, generated=report.generated)
            return self._select(ctx, backend).count(ctx)
        result = get_session(graph).count(
            self._query(use_iep=use_iep, backend=backend)
        )
        return result.count

    def match(
        self,
        graph: Graph,
        *,
        limit: int | None = None,
        report: PlanReport | None = None,
        backend: str | ExecutionBackend | None = None,
    ):
        """Yield embeddings as tuples indexed by pattern vertex.

        Enumeration needs explicit inner loops, so IEP plans are
        recompiled with ``iep_k=0`` and counting-only backends (e.g.
        ``compiled``) automatically fall back to the interpreter.
        """
        if report is not None:
            plan = report.plan
            if plan.iep_k:
                plan = report.chosen.config.compile(iep_k=0)
            ctx = MatchContext(graph=graph, plan=plan)
            chosen = self._select(ctx, backend, for_enumeration=True)
            return chosen.enumerate_embeddings(ctx, limit=limit)
        return get_session(graph).enumerate(
            self._query(use_iep=False, backend=backend), limit=limit
        )

    def result(
        self,
        graph: Graph,
        *,
        use_iep: bool | None = None,
        backend: str | ExecutionBackend | None = None,
    ) -> MatchResult:
        """Like :meth:`count` but returning the structured
        :class:`~repro.core.query.MatchResult` (backend used, plan
        provenance, cache hit/miss, timings)."""
        return get_session(graph).count(self._query(use_iep=use_iep, backend=backend))


# ---------------------------------------------------------------------------
# module-level one-shots
# ---------------------------------------------------------------------------
def count_pattern(
    graph: Graph,
    pattern: Pattern,
    *,
    use_iep: bool | None = None,
    backend: str | ExecutionBackend | None = None,
    **kwargs,
) -> int:
    """One-shot: plan + count (through the selected execution backend).

    A shim over the graph's shared session — repeated one-shot calls
    with the same pattern and graph hit the plan cache.
    """
    return PatternMatcher(pattern, backend=backend, **kwargs).count(
        graph, use_iep=use_iep
    )


def match_pattern(
    graph: Graph,
    pattern: Pattern,
    *,
    limit: int | None = None,
    backend: str | ExecutionBackend | None = None,
    **kwargs,
):
    """One-shot: plan + enumerate embeddings."""
    return PatternMatcher(pattern, backend=backend, **kwargs).match(graph, limit=limit)


def match_query(
    graph,
    query: MatchQuery | Pattern,
    *,
    backend: str | ExecutionBackend | None = None,
) -> MatchResult:
    """One-shot declarative entry point: run ``query`` against ``graph``.

    Accepts any graph kind the session layer supports (plain, labeled,
    directed) and any :class:`~repro.core.query.MatchQuery` (or a bare
    pattern, which is wrapped).  Equivalent to
    ``get_session(graph).count(query, backend=backend)``; a call-level
    ``backend`` wins over the query's own preference.
    """
    return get_session(graph).count(query, backend=backend)

"""The graph-bound session layer: plan once, execute many.

Table III of the paper measures what preprocessing costs — Algorithm 1
restriction generation, 2-phase schedule enumeration, performance-model
ranking and code generation all run *before* the first data vertex is
touched.  A production service answering many pattern queries against
the same graph must not pay that price per request, so this module
binds the whole pipeline to a graph:

* :class:`MatchSession` — owns one data graph (plain
  :class:`~repro.graph.csr.Graph`,
  :class:`~repro.graph.labeled.LabeledGraph` or
  :class:`~repro.graph.digraph.DiGraph`) and a **plan cache** keyed by
  ``(query fingerprint, graph stats signature)``.  ``count(query)``,
  ``enumerate(query, limit=)`` and ``count_many([queries])`` plan on
  first sight of a fingerprint and replay the compiled plan on every
  repeat — preprocessing is amortised to zero on cache hits.
* :func:`plan_query` — the one preprocessing pipeline of every mode
  (restriction sets → schedules → configurations → model ranking →
  compile the winner → codegen) on precomputed graph statistics;
  :func:`plan_plain` is its plain-mode shorthand.
* :func:`get_session` — a per-process registry handing out one session
  per live graph object, so one-shot helpers (``count_pattern``,
  ``motif_census``, the CLI) share plans without threading a session
  through every signature.

Cache key and invalidation
--------------------------
Plans are cached at two levels.

*Per session (the plan cache).*  The key is ``(MatchQuery.fingerprint,
stats_signature)``.  The stats signature is derived from the graph's
structural statistics (|V|, |E|, triangle count, max degree — exactly
what the §IV-C performance model consumes — plus the label array
digest for labeled graphs and the arc count for digraphs).  It is
computed **once per session**, which is sound because every graph type
in this repository is immutable; a session offers no invalidation hooks
for in-place mutation (don't mutate CSR arrays behind a session's
back).  Updated data arrives as a *new* graph object (e.g. a
:class:`~repro.graph.dynamic.DynamicGraph` snapshot), which gets its
own session — and because the signature participates in every key,
entries from different graphs can never collide even if plan caches
are merged or shared externally.  ``clear_cache()`` drops all entries
explicitly.

*Per pattern, shared by the registry (the pattern plans).*  Planning
splits into a graph-independent half — the mode's symmetry group,
Algorithm 1's restriction sets, the 2-phase schedules, their
configurations and (per ``iep_k``) each configuration's priced shape,
a :class:`PatternPlan` — and a per-graph half, the model ranking on the
graph's statistics plus compiling the winner.  Every mode splits the
same way: plain and induced queries plan on the pattern's full group,
labeled ones on the label-preserving subgroup, directed ones on the
skeleton with the direction-preserving subgroup.  Every session handed
out by :func:`get_session` reads and fills one bounded, locked LRU of
pattern plans keyed by ``(mode, pattern, max_restriction_sets,
dedup_schedules)``, so a plan miss on a new snapshot of a churning
graph costs only the re-rank; the ranking itself is exact, so the
chosen plan is the one a from-scratch plan would pick.  A private
``MatchSession(graph)`` never touches it and plans from scratch: its
caches live exactly as long as the session its owner controls.
:func:`clear_sessions` empties both the registry and the shared
pattern plans.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple

from repro.core.backend import (
    DEFAULT_ORDER,
    ExecutionBackend,
    MatchContext,
    capabilities_of,
    compile_for_context,
    get_backend,
    has_kernel,
    select_backend,
)
from repro.core.config import compile_plan, enumerate_configurations
from repro.core.perf_model import (
    ConfigurationSet,
    PerformanceModel,
    RankedConfiguration,
)
from repro.core.query import MatchQuery, MatchResult, as_query
from repro.core.restrictions import (
    RestrictionSet,
    generate_restriction_sets,
    symmetry_group,
)
from repro.core.schedule import generate_schedules, independent_suffix_size
from repro.graph.csr import Graph
from repro.graph.digraph import DiGraph
from repro.graph.labeled import LabeledGraph
from repro.graph.stats import GraphStats
from repro.obs import metrics as obs_metrics
from repro.obs.trace import collect, span
from repro.pattern.pattern import Pattern
from repro.utils.timing import Timer

if TYPE_CHECKING:
    from repro.core.codegen import GeneratedCounter


# ---------------------------------------------------------------------------
# the preprocessing pipeline, one for every mode
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PlanReport:
    """Everything preprocessing produced, plus wall-clock timings.

    ``pattern`` is the query's pattern (a
    :class:`~repro.pattern.pattern.Pattern`,
    :class:`~repro.pattern.labeled.LabeledPattern` or
    :class:`~repro.pattern.directed.DiPattern`); ``ranking`` holds the
    configurations of its structure, cheapest first.  ``plan`` is the
    winner lowered for the mode: an
    :class:`~repro.core.config.ExecutionPlan` carrying the mode's refs,
    labels and anti columns.
    """

    pattern: Any
    stats: GraphStats
    restriction_sets: tuple[RestrictionSet, ...]
    n_schedules: int
    ranking: tuple[RankedConfiguration, ...]
    chosen: RankedConfiguration
    plan: Any
    generated: GeneratedCounter | None
    seconds_restrictions: float
    seconds_schedules: float
    seconds_model: float
    seconds_codegen: float
    #: True when the restriction sets and schedules came from a pattern
    #: plan built by an earlier call (their seconds are then 0)
    pattern_hit: bool = False

    @property
    def predicted_cost(self) -> float:
        return self.chosen.predicted_cost

    @property
    def n_tied(self) -> int:
        """How many configurations the model priced exactly at the
        winner's cost (the winner included): ties keep input order."""
        cost = self.chosen.predicted_cost
        return sum(1 for r in self.ranking if r.predicted_cost == cost)

    @property
    def seconds_total(self) -> float:
        return (
            self.seconds_restrictions
            + self.seconds_schedules
            + self.seconds_model
            + self.seconds_codegen
        )

    def describe(self) -> str:
        c = self.chosen
        return (
            f"pattern={self.pattern.name or self.pattern!r} "
            f"{len(self.restriction_sets)} restriction sets x "
            f"{self.n_schedules} schedules -> {len(self.ranking)} configurations; "
            f"chose {c.config.describe()} (predicted cost {c.predicted_cost:.3g}); "
            f"{self.n_tied} tied at that cost; "
            f"preprocessing {self.seconds_total * 1e3:.1f} ms"
        )


@dataclass(frozen=True)
class PatternPlan:
    """The graph-independent half of planning one pattern in one mode.

    The mode's symmetry group, Algorithm 1's restriction sets, the
    2-phase schedules and their configurations depend on the pattern and
    the planner knobs alone; only the §IV-C ranking reads the data
    graph.  ``configurations`` (on the pattern's undirected structure,
    ``skeleton``) also keeps each configuration's priced shape per
    ``iep_k`` once a ranking has computed it and lowers the winner with
    the mode's compile function (see
    :class:`~repro.core.perf_model.ConfigurationSet`), so ranking the
    same pattern on another graph re-evaluates only the stats-dependent
    terms.  ``seconds_*`` record what building it cost.
    """

    skeleton: Pattern
    restriction_sets: tuple[RestrictionSet, ...]
    n_schedules: int
    configurations: ConfigurationSet
    seconds_restrictions: float
    seconds_schedules: float
    seconds_configurations: float


def _plain_inputs(pattern: Pattern, max_sets: int | None):
    """(skeleton, group, restriction sets, compile function) of a plain pattern."""
    group = symmetry_group(pattern)
    sets = generate_restriction_sets(pattern, max_sets=max_sets, auts=group)
    return pattern, group, sets, compile_plan


def _plan_pattern(
    mode: str,
    pattern: Any,
    *,
    max_restriction_sets: int | None = 64,
    dedup_schedules: bool = True,
) -> PatternPlan:
    """Build the graph-independent half of :func:`plan_query`.

    The mode's group is enumerated once, here, and handed to every stage
    (validation, schedule dedup, the IEP overcount).
    """
    with Timer() as t_res, span("restrictions") as sp:
        if mode == "labeled":
            from repro.core.labeled import labeled_plan_inputs as inputs
        elif mode == "directed":
            from repro.core.directed import directed_plan_inputs as inputs
        else:
            inputs = _plain_inputs
        skeleton, group, restriction_sets, compile = inputs(pattern, max_restriction_sets)
        sp.set(n_sets=len(restriction_sets))
    with Timer() as t_sched, span("schedules") as sp:
        schedules = generate_schedules(
            skeleton, dedup_automorphic=dedup_schedules, auts=group
        )
        sp.set(n_schedules=len(schedules))
    with Timer() as t_conf:
        configurations = ConfigurationSet(
            enumerate_configurations(skeleton, schedules, restriction_sets),
            auts=group,
            compile=compile,
        )
    return PatternPlan(
        skeleton=skeleton,
        restriction_sets=tuple(restriction_sets),
        n_schedules=len(schedules),
        configurations=configurations,
        seconds_restrictions=t_res.elapsed,
        seconds_schedules=t_sched.elapsed,
        seconds_configurations=t_conf.elapsed,
    )


def graph_stats(graph: Any) -> GraphStats:
    """The statistics the model ranks on: a labeled graph's structure,
    a digraph's undirected view."""
    if isinstance(graph, LabeledGraph):
        graph = graph.graph
    elif isinstance(graph, DiGraph):
        graph = graph.to_undirected()
    return GraphStats.of(graph)


def plan_query(
    query: MatchQuery,
    graph: Any = None,
    stats: GraphStats | None = None,
    *,
    kernel: bool = False,
    shared: bool = False,
) -> PlanReport:
    """Run the preprocessing pipeline for ``query`` and pick a plan.

    Every mode goes through it: the pattern plan (built here, or read
    from the registry's shared pattern plans when ``shared``), one
    :meth:`~repro.core.perf_model.PerformanceModel.rank` on ``stats``
    (of ``graph`` when not given), and one compile of the winner.
    Plain queries price each configuration with the IEP suffix
    ``use_iep`` asks for; labeled and directed ones price without IEP
    (labeled: scaled by the wanted labels' frequencies in ``graph``)
    and compile the winner with the longest suffix it supports.
    ``kernel`` also generates the winner's kernel.
    """
    if stats is None:
        stats = graph_stats(graph)
    if shared:
        pattern_plan, reused = _shared_pattern_plan(query)
    else:
        pattern_plan, reused = _plan_pattern(
            query.mode,
            query.pattern,
            max_restriction_sets=query.max_restriction_sets,
            dedup_schedules=query.dedup_schedules,
        ), False
    configs = pattern_plan.configurations
    use_iep = query.resolved_use_iep
    with Timer() as t_model, span("model") as sp:
        iep_k, scale = 0, None
        if query.mode == "plain" and use_iep:
            iep_k = independent_suffix_size(query.pattern)
        elif query.mode == "labeled":
            from repro.core.labeled import label_weight

            scale = label_weight(query.pattern, graph)
        ranking = PerformanceModel(stats).rank(configs, iep_k=iep_k, scale=scale)
        sp.set(n_configs=len(configs), iep_k=iep_k)
    chosen = ranking[0]
    generated = None
    with Timer() as t_gen, span("codegen") as sp:
        if query.semantics == "induced":
            # the plain pattern plan's winner, lowered with anti columns
            plan = compile_plan(chosen.config, iep_k=chosen.iep_k, induced=True)
        elif query.mode != "plain" and use_iep:
            # priced without IEP: the winner takes the longest suffix it supports
            plan = configs.compile(chosen.config, pattern_plan.skeleton.n_vertices - 1)
        else:
            plan = chosen.plan
        if kernel and has_kernel(plan):
            from repro.core.codegen import compile_plan_function

            generated = compile_plan_function(plan)
        sp.set(iep_k=plan.iep_k, kernel=generated is not None)
    return PlanReport(
        pattern=query.pattern,
        stats=stats,
        restriction_sets=pattern_plan.restriction_sets,
        n_schedules=pattern_plan.n_schedules,
        ranking=tuple(ranking),
        chosen=chosen,
        plan=plan,
        generated=generated,
        seconds_restrictions=0.0 if reused else pattern_plan.seconds_restrictions,
        seconds_schedules=0.0 if reused else pattern_plan.seconds_schedules,
        seconds_model=t_model.elapsed
        + (0.0 if reused else pattern_plan.seconds_configurations),
        seconds_codegen=t_gen.elapsed,
        pattern_hit=reused,
    )


def plan_plain(
    pattern: Pattern,
    stats: GraphStats,
    *,
    use_iep: bool = False,
    max_restriction_sets: int | None = 64,
    dedup_schedules: bool = True,
    codegen: bool = True,
) -> PlanReport:
    """:func:`plan_query` for a plain pattern on precomputed statistics.

    ``use_iep`` asks the model to score configurations with the
    innermost independent loops replaced by IEP; ``codegen`` generates
    the winner's kernel.  The pattern half is built for this call only.
    """
    query = MatchQuery(
        pattern,
        use_iep=use_iep,
        max_restriction_sets=max_restriction_sets,
        dedup_schedules=dedup_schedules,
    )
    return plan_query(query, stats=stats, kernel=codegen)


# ---------------------------------------------------------------------------
# cached plans
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PlanEntry:
    """One cached, executable plan: everything needed to build a context.

    ``report`` keeps the :class:`PlanReport` for provenance and
    introspection — including the full configuration ranking that
    ``repro plan`` prints.  Retention is bounded:
    at most ``MatchSession.max_plans`` entries per session (LRU) and at
    most :func:`session_cache_size` registry sessions process-wide.
    ``seconds_plan`` records what the cold planning cost — the time a
    cache hit saves.
    """

    key: tuple
    mode: str
    semantics: str
    plan: Any
    generated: GeneratedCounter | None
    provenance: str
    predicted_cost: float
    seconds_plan: float
    report: PlanReport

    def context(self, graph: Any) -> MatchContext:
        return MatchContext(
            graph=graph, plan=self.plan, mode=self.plan.mode, generated=self.generated
        )


class CacheInfo(NamedTuple):
    """Plan-cache counters (in the spirit of ``functools.lru_cache``)."""

    hits: int
    misses: int
    size: int


def stats_signature(graph: Any, stats: GraphStats) -> tuple:
    """The graph half of the plan-cache key.

    Built from the structural statistics the §IV-C performance model
    consumes — the quantities that, when unchanged, make a cached plan
    exactly the plan the pipeline would re-derive — plus the
    kind-specific extras (label digest, arc count) that distinguish
    graphs the base stats cannot.
    """
    base = (
        stats.n_vertices,
        stats.n_edges,
        stats.triangles,
        stats.max_degree,
        stats.upper_degree_sum,
        stats.lower_degree_sum,
    )
    if isinstance(graph, LabeledGraph):
        import hashlib

        digest = hashlib.sha1(graph.labels.tobytes()).hexdigest()[:16]
        return ("labeled",) + base + (digest,)
    if isinstance(graph, DiGraph):
        return ("digraph",) + base + (graph.n_arcs,)
    return ("graph",) + base


def _wants_kernel(query: MatchQuery) -> bool:
    """Whether planning should generate a kernel for the query's backend.

    Only preferences whose declared capabilities consume generated
    kernels get one (an unknown name keeps the old eager behaviour).
    No preference plans for the head of the default order — the
    vectorised backend, which never runs a kernel.
    """
    spec = query.backend if query.backend is not None else DEFAULT_ORDER[0]
    caps = capabilities_of(spec)
    return caps is None or caps.generated_kernels


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------
class MatchSession:
    """A data graph plus a plan cache: the unified query surface.

    Parameters
    ----------
    graph:
        The bound data graph.  A plain :class:`~repro.graph.csr.Graph`
        serves plain and induced queries; a
        :class:`~repro.graph.labeled.LabeledGraph` additionally serves
        labeled queries (plain/induced queries run on its underlying
        structure); a :class:`~repro.graph.digraph.DiGraph` serves
        directed queries.
    backend:
        Session-default execution backend (name, instance or ``None``
        for the default order: vectorised, compiled, interpreter).
        Per-query and per-call preferences win.
    max_plans:
        Plan-cache capacity (LRU).  Workloads that stream *distinct*
        queries (e.g. FSM candidate generation) would otherwise grow
        the cache — and every retained :class:`PlanEntry` report —
        without bound.

    >>> session = MatchSession(load_dataset("wiki-vote", scale=0.2))
    >>> session.count(MatchQuery(get_pattern("house")))      # plans
    >>> session.count(MatchQuery(get_pattern("house")))      # cache hit
    """

    def __init__(
        self,
        graph: Any,
        *,
        backend: str | ExecutionBackend | None = None,
        max_plans: int = 128,
    ):
        if not isinstance(graph, (Graph, LabeledGraph, DiGraph)):
            raise TypeError(
                "MatchSession needs a Graph, LabeledGraph or DiGraph, "
                f"got {type(graph).__name__}"
            )
        if max_plans < 1:
            raise ValueError("the plan cache needs capacity >= 1")
        self.graph = graph
        self.backend = backend
        self.max_plans = max_plans
        self._stats: GraphStats | None = None
        self._signature: tuple | None = None
        self._cache: OrderedDict[tuple, PlanEntry] = OrderedDict()
        self._hits = 0
        self._misses = 0
        #: whether planning reads and fills the registry's shared
        #: pattern plans (set by get_session only)
        self._shares_patterns = False
        # One reentrant lock guards the plan cache, the hit/miss
        # counters and the lazy stats/signature memos.  Concurrent
        # service workers share sessions; without it, two threads
        # missing on the same fingerprint both run the full planning
        # pipeline (double-plan) and racing evictions can corrupt the
        # OrderedDict.  Planning happens *under* the lock on purpose:
        # serialising a cold plan is exactly what makes the second
        # thread a cache hit instead of a duplicate plan.
        self._lock = threading.RLock()

    # -- graph views ----------------------------------------------------
    @property
    def stats(self) -> GraphStats:
        """Structural statistics of the bound graph (computed once)."""
        if self._stats is None:
            with self._lock:
                if self._stats is None:
                    self._stats = graph_stats(self.graph)
        return self._stats

    @property
    def signature(self) -> tuple:
        """The graph half of the plan-cache key (see :func:`stats_signature`)."""
        if self._signature is None:
            with self._lock:
                if self._signature is None:
                    self._signature = stats_signature(self.graph, self.stats)
        return self._signature

    def _execution_graph(self, query: MatchQuery) -> Any:
        """The graph object the chosen engine family actually reads."""
        g = self.graph
        if query.mode == "labeled":
            if not isinstance(g, LabeledGraph):
                raise TypeError(
                    "labeled queries need a session over a LabeledGraph, "
                    f"this session holds a {type(g).__name__}"
                )
            return g
        if query.mode == "directed":
            if not isinstance(g, DiGraph):
                raise TypeError(
                    "directed queries need a session over a DiGraph, "
                    f"this session holds a {type(g).__name__}"
                )
            return g
        if isinstance(g, DiGraph):
            raise TypeError(
                "plain queries cannot run on a DiGraph session; bind a "
                "session to graph.to_undirected() instead"
            )
        return g.graph if isinstance(g, LabeledGraph) else g

    # -- planning -------------------------------------------------------
    def plan_for(self, query: MatchQuery | Any, *, kernel: bool = False) -> PlanEntry:
        """The cached plan for a query, planning on first sight.

        ``kernel=True`` also guarantees the entry carries its generated
        kernel: compiled once and memoised on the cached entry (and on
        a plain report) when planning skipped it — no preference plans
        for the vectorised backend, which never runs one.
        """
        query = as_query(query)
        graph = self._execution_graph(query)  # validates mode/graph pairing
        entry = self._lookup_or_plan(query)[0]
        if kernel and entry.generated is None:
            entry = self._memoise_kernel(entry, entry.context(graph))
        return entry

    def _lookup_or_plan(self, query: MatchQuery) -> tuple[PlanEntry, bool]:
        """(entry, was cache hit) — the one key computation per call."""
        key = (query.fingerprint, self.signature)
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._hits += 1
                obs_metrics.PLAN_CACHE_HITS.inc()
                self._cache.move_to_end(key)
                return entry, True
            with Timer() as t:
                entry = self._plan(query, key)
            entry = dataclasses.replace(entry, seconds_plan=t.elapsed)
            self._misses += 1
            obs_metrics.PLAN_CACHE_MISSES.inc()
            self._cache[key] = entry
            while len(self._cache) > self.max_plans:
                self._cache.popitem(last=False)
            return entry, False

    def _plan(self, query: MatchQuery, key: tuple) -> PlanEntry:
        # Backend preferences whose declared capabilities say they never
        # consume generated kernels (vectorised, and so no preference at
        # all) skip the wasted generation — a later explicit
        # backend="compiled" call, or a fallback onto compiled, still
        # gets a kernel on demand via _ensure_kernel.
        report = plan_query(
            query,
            self._execution_graph(query),
            self.stats,
            kernel=query.use_codegen and _wants_kernel(query),
            shared=self._shares_patterns,
        )
        if report.pattern_hit:
            obs_metrics.PLAN_PATTERN_HITS.inc()
        return PlanEntry(
            key=key,
            mode=query.mode,
            semantics=query.semantics,
            plan=report.plan,
            generated=report.generated,
            provenance=report.chosen.config.describe(),
            predicted_cost=report.predicted_cost,
            seconds_plan=0.0,
            report=report,
        )

    # -- execution ------------------------------------------------------
    def _effective_query(
        self, query: MatchQuery, backend: "str | ExecutionBackend | None"
    ) -> MatchQuery:
        """Fold the winning backend preference into the query.

        Preference order: call-level ``backend=`` > the query's own >
        the session default.  Folding it in *before* planning lets the
        capability-aware knobs (IEP resolution, codegen skip) see the
        preference regardless of which channel supplied it — a
        session-default or per-call ``"compiled"`` on a directed query
        gets the IEP-free plan it can execute, not a silent interpreter
        fallback.
        """
        effective = backend if backend is not None else query.backend
        if effective is None:
            effective = self.backend
        if effective is not None and effective is not query.backend:
            query = query.with_backend(effective)
        return query

    def _select(
        self,
        ctx: MatchContext,
        query: MatchQuery,
        backend: str | ExecutionBackend | None,
        *,
        for_enumeration: bool = False,
    ) -> ExecutionBackend:
        """The backend that runs ``ctx``.

        With no explicit request and ``use_codegen=False`` on a context
        that carries no pre-generated kernel, run the interpreter — the
        historical meaning of ``use_codegen=False``; otherwise apply the
        registry's :func:`~repro.core.backend.select_backend` (no
        request: vectorised, then compiled, then interpreter).
        """
        requested = backend if backend is not None else query.backend
        if requested is None:
            requested = self.backend
        if requested is None and not query.use_codegen and ctx.generated is None:
            return get_backend("interpreter")
        return select_backend(ctx, requested, for_enumeration=for_enumeration)

    def _ensure_kernel(self, entry: PlanEntry, chosen: ExecutionBackend,
                       ctx: MatchContext) -> MatchContext:
        """Memoise a kernel compiled at execution time onto the entry.

        An entry planned without codegen (``use_codegen=False``, or no
        backend preference) but executed on the compiled backend would
        otherwise re-generate the kernel on every cache-hit call —
        exactly the cost the cache exists to amortise.
        """
        if (
            chosen.name == "compiled"
            and ctx.generated is None
            and chosen.supports(ctx)
        ):
            generated = self._memoise_kernel(entry, ctx).generated
            return dataclasses.replace(ctx, generated=generated)
        return ctx

    def _memoise_kernel(self, entry: PlanEntry, ctx: MatchContext) -> PlanEntry:
        """Compile the context's kernel and store it on the cached entry."""
        with span("compile", mode=ctx.mode):
            generated = compile_for_context(ctx)
        obs_metrics.KERNELS_COMPILED.inc()
        report = dataclasses.replace(entry.report, generated=generated)
        updated = dataclasses.replace(entry, generated=generated, report=report)
        with self._lock:
            if entry.key in self._cache:
                self._cache[entry.key] = updated
        return updated

    def count(
        self,
        query: MatchQuery | Any,
        *,
        backend: str | ExecutionBackend | None = None,
    ) -> MatchResult:
        """Count embeddings of ``query`` (a :class:`MatchQuery` or bare
        pattern) in the bound graph, reusing the cached plan when one
        exists.  ``backend`` overrides the query's and the session's
        preference for this call only.
        """
        query = self._effective_query(as_query(query), backend)
        with collect(
            "match", mode=query.mode, semantics=query.semantics
        ) as trace:
            graph = self._execution_graph(query)
            with span("plan") as sp:
                entry, was_hit = self._lookup_or_plan(query)
                sp.set(
                    cache_hit=was_hit,
                    pattern_hit=not was_hit and entry.report.pattern_hit,
                    provenance=entry.provenance,
                )
            ctx = entry.context(graph)
            chosen = self._select(ctx, query, backend)
            ctx = self._ensure_kernel(entry, chosen, ctx)
            # Backends with a structured side-channel (the distributed
            # backend's scaling profile) expose count_with_report; the
            # tuple protocol keeps plain count() implementations untouched.
            runner = getattr(chosen, "count_with_report", None)
            with span("execute", backend=chosen.name) as sx:
                with Timer() as t_exec:
                    if runner is not None:
                        n, side_report = runner(ctx)
                    else:
                        n, side_report = chosen.count(ctx), None
                sx.set(count=n)
        if trace is not None:
            obs_metrics.TRACES_COLLECTED.inc()
        obs_metrics.BACKEND_COUNTS.labels(backend=chosen.name).inc()
        return MatchResult(
            count=n,
            backend=chosen.name,
            mode=query.mode,
            semantics=query.semantics,
            cache_hit=was_hit,
            seconds_plan=0.0 if was_hit else entry.seconds_plan,
            seconds_execute=t_exec.elapsed,
            provenance=entry.provenance,
            fingerprint=entry.key[0],
            distributed_report=side_report,
            trace=trace,
        )

    def enumerate(
        self,
        query: MatchQuery | Any,
        *,
        limit: int | None = None,
        backend: str | ExecutionBackend | None = None,
    ) -> Iterator[tuple[int, ...]]:
        """Yield embeddings as tuples indexed by pattern vertex.

        Enumeration needs explicit inner loops, so the query's
        IEP-free variant is planned (and cached under its own
        fingerprint); counting-only backends fall back to the
        interpreter automatically.
        """
        query = self._effective_query(as_query(query), backend).for_enumeration()
        graph = self._execution_graph(query)
        entry, _ = self._lookup_or_plan(query)
        ctx = entry.context(graph)
        chosen = self._select(ctx, query, backend, for_enumeration=True)
        return chosen.enumerate_embeddings(ctx, limit=limit)

    def count_many(
        self,
        queries,
        *,
        backend: str | ExecutionBackend | None = None,
        reduce: "bool | str" = "auto",
    ) -> list[MatchResult]:
        """Count a batch of queries (plans shared through the cache).

        The batch entry point for repeated-query workloads: a motif
        census, a significance ensemble, a service draining a request
        queue.  Results are returned in input order.

        On a digraph session, directed queries sharing an undirected
        skeleton are served by XMiner-style reduction
        (:mod:`repro.core.reduction`): the skeleton core is enumerated
        once on the undirected view, every core embedding gets one
        direction code (two bits per skeleton edge), and each
        orientation is counted from the distinct codes against one
        required-bit mask per skeleton automorphism — instead of one
        full matching run per pattern.  ``reduce="auto"`` (default)
        applies it to groups of two or more queries with no explicit
        backend preference anywhere (call, query or session —
        reduction chooses its own core executor); ``True`` forces it
        for every directed group, ``False`` disables it.  Skeletons
        with more than :data:`~repro.core.reduction.MAX_SKELETON_EDGES`
        (31) edges do not fit a direction code, and digraphs with more
        than :data:`~repro.core.reduction.MAX_DIGRAPH_VERTICES` (2048)
        vertices do not fit the direction table: their queries are
        always counted per pattern.  Reduced results carry
        ``backend="reduction"``, the shared-core summary in
        ``provenance``, and the skeleton plan's ``cache_hit``; the
        group's planning and execution seconds are split evenly across
        its results.
        """
        if reduce not in (True, False, "auto"):
            raise ValueError('reduce must be True, False or "auto"')
        queries = [as_query(q) for q in queries]
        results: list[MatchResult | None] = [None] * len(queries)
        groups: dict[tuple, list[int]] = {}
        if reduce is not False and isinstance(self.graph, DiGraph):
            from repro.core.reduction import reducible, skeleton_key

            no_preference = backend is None and self.backend is None
            for i, query in enumerate(queries):
                if query.mode != "directed":
                    continue
                if reduce == "auto" and not (no_preference and query.backend is None):
                    continue
                key = skeleton_key(query.pattern)
                if reducible(self.graph, key):
                    groups.setdefault(key, []).append(i)
        for key, members in groups.items():
            if len(members) < 2:
                continue
            from repro.core.reduction import reduce_directed_batch

            counts, report = reduce_directed_batch(
                self.graph, [queries[i].pattern for i in members]
            )
            for i, n in zip(members, counts):
                results[i] = MatchResult(
                    count=n,
                    backend="reduction",
                    mode="directed",
                    semantics=queries[i].semantics,
                    cache_hit=report.cache_hit,
                    seconds_plan=report.seconds_plan / len(members),
                    seconds_execute=report.seconds_execute / len(members),
                    provenance=report.describe(),
                    fingerprint=queries[i].fingerprint,
                )
        for i, query in enumerate(queries):
            if results[i] is None:
                results[i] = self.count(query, backend=backend)
        return results

    # -- cache management ----------------------------------------------
    def cache_info(self) -> CacheInfo:
        """A consistent snapshot of the counters (taken under the lock,
        so a reader never sees a hit counted against a size it did not
        yet reach — the service stats endpoint reads this concurrently
        with executing workers)."""
        with self._lock:
            return CacheInfo(
                hits=self._hits, misses=self._misses, size=len(self._cache)
            )

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        info = self.cache_info()
        return (
            f"MatchSession({self.graph!r}, plans={info.size}, "
            f"hits={info.hits}, misses={info.misses})"
        )


# ---------------------------------------------------------------------------
# the per-process session registry
# ---------------------------------------------------------------------------
#: id(graph) -> its session, LRU-ordered.  A registered session holds
#: its graph alive, so the registry is bounded: the least recently used
#: entry is evicted once the cap is exceeded (a registry entry that
#: pinned every transient graph — e.g. a significance ensemble — would
#: otherwise grow without bound).
_SESSIONS: OrderedDict[int, MatchSession] = OrderedDict()
_MAX_SESSIONS = 8
#: guards _SESSIONS and _MAX_SESSIONS — the registry is shared by every
#: serving worker thread, and unlocked LRU maintenance on an OrderedDict
#: is not atomic (concurrent move_to_end/popitem can raise KeyError or
#: hand two threads two different sessions for one graph, splitting the
#: plan cache).
_SESSIONS_LOCK = threading.Lock()


def get_session(graph: Any) -> MatchSession:
    """One shared :class:`MatchSession` per (recently used) graph object.

    One-shot helpers (``count_pattern``, ``clique_count``, the CLI, the
    mining workloads) route through this registry so that *any* repeated
    query against the same graph object hits the plan cache — no session
    object needs to travel through their signatures.  At most
    :func:`session_cache_size` sessions are retained (LRU); evicted or
    unregistered graphs simply get a fresh session next time.

    Thread-safe: concurrent callers for the same graph get the *same*
    session object (whose plan cache is itself locked), so a serving
    worker pool shares plans instead of racing to build them.  Registry
    sessions also share the pattern plans (see the module docstring):
    a new graph object's first plan of a known pattern only re-ranks
    it.

    Note the retention trade-off: a registered session keeps its graph
    alive until displaced, so a one-shot count on a huge transient graph
    pins it temporarily.  For tight memory budgets, shrink the registry
    (:func:`set_session_cache_size`), call :func:`clear_sessions`, or
    construct a private :class:`MatchSession` whose lifetime you control.
    """
    key = id(graph)
    with _SESSIONS_LOCK:
        session = _SESSIONS.get(key)
        if session is not None and session.graph is graph:
            _SESSIONS.move_to_end(key)
            return session
        session = MatchSession(graph)
        session._shares_patterns = True
        _SESSIONS[key] = session
        _SESSIONS.move_to_end(key)
        while len(_SESSIONS) > _MAX_SESSIONS:
            _SESSIONS.popitem(last=False)
        return session


def session_cache_size() -> int:
    """The registry's LRU capacity."""
    return _MAX_SESSIONS


def set_session_cache_size(n: int) -> None:
    """Resize the registry (shrinking evicts least recently used now)."""
    global _MAX_SESSIONS
    if n < 1:
        raise ValueError("the session registry needs capacity >= 1")
    with _SESSIONS_LOCK:
        _MAX_SESSIONS = n
        while len(_SESSIONS) > _MAX_SESSIONS:
            _SESSIONS.popitem(last=False)


def clear_sessions() -> None:
    """Drop every registered session and the pattern plans they share
    (test isolation / memory pressure)."""
    with _SESSIONS_LOCK:
        _SESSIONS.clear()
    with _PATTERN_PLANS_LOCK:
        _PATTERN_PLANS.clear()


#: (mode, pattern, max_restriction_sets, dedup_schedules) -> its
#: PatternPlan, LRU-ordered and shared by every registry session.
#: Registry sessions come and go with graph objects (each DynamicGraph
#: snapshot gets its own), while a pattern's restriction sets and
#: schedules do not depend on the graph: sharing them makes a plan miss
#: on a new snapshot cost only the re-rank.  Private MatchSessions never
#: touch it.
_PATTERN_PLANS: OrderedDict[tuple, PatternPlan] = OrderedDict()
_MAX_PATTERN_PLANS = 64
#: guards _PATTERN_PLANS; a pattern plan is built under it, so two
#: sessions missing on one pattern build it once.
_PATTERN_PLANS_LOCK = threading.Lock()


def _shared_pattern_plan(query: MatchQuery) -> tuple[PatternPlan, bool]:
    """(the registry's pattern plan for a query, whether it existed)."""
    key = (query.mode, query.pattern, query.max_restriction_sets, query.dedup_schedules)
    with _PATTERN_PLANS_LOCK:
        pattern_plan = _PATTERN_PLANS.get(key)
        if pattern_plan is not None:
            _PATTERN_PLANS.move_to_end(key)
            return pattern_plan, True
        pattern_plan = _plan_pattern(
            query.mode,
            query.pattern,
            max_restriction_sets=query.max_restriction_sets,
            dedup_schedules=query.dedup_schedules,
        )
        _PATTERN_PLANS[key] = pattern_plan
        while len(_PATTERN_PLANS) > _MAX_PATTERN_PLANS:
            _PATTERN_PLANS.popitem(last=False)
        return pattern_plan, False

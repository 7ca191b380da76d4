"""The pluggable execution-backend layer: one matching core, many executors.

GraphPi's headline speedup comes from *generating* specialised code per
(schedule, restriction-set) configuration instead of interpreting it
(§III "Code Generation and Compilation", Fig. 5(b)).  That only pays
off if the generated kernel is the path every frontend actually takes —
so this module gives the system a single execution seam:

* :class:`MatchContext` — everything needed to execute one planned
  matching job: the data graph, the compiled plan, the matching mode
  (plain / induced / labeled / directed) and any pre-generated kernel.
* :class:`ExecutionBackend` — the strategy interface: ``count`` a
  context, optionally ``enumerate_embeddings`` from it.
* a registry — backends register under a name; ``get_backend`` builds
  them, ``select_backend`` implements the no-preference default (the
  first of :data:`DEFAULT_ORDER` — vectorised, compiled, interpreter —
  that supports the call) and the interpreter fallback for explicit
  preferences that cannot serve it, counted by
  ``repro_backend_fallbacks_total``.

Every consumer — :mod:`repro.core.api`, the CLI, the parallel runtime,
the scenario layers and the mining workloads — dispatches through this
registry instead of instantiating engines directly, so a new backend
(vectorised frontiers, a distributed driver, ...) becomes available to
all of them by registering one class.

Registering a custom backend::

    from repro.core.backend import ExecutionBackend, register_backend

    @register_backend
    class MyBackend(ExecutionBackend):
        name = "mine"
        def supports(self, ctx):
            return ctx.mode == "plain"
        def count(self, ctx):
            ...
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.codegen import (
    GeneratedCounter,
    compile_directed_function,
    compile_induced_function,
    compile_labeled_function,
    compile_plan_function,
    compile_prefix_function,
)
from repro.core.config import Configuration, ExecutionPlan
from repro.core.directed import DirectedPlan
from repro.core.engine import Engine
from repro.core.engine_variants import PreSliceEngine
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span

#: matching semantics a context can carry; backends opt into each.
MODES = ("plain", "induced", "labeled", "directed")


class BackendUnsupportedError(ValueError):
    """Raised when a backend is asked to execute a context it cannot."""


@dataclass(frozen=True)
class MatchContext:
    """One executable matching job, backend-agnostic.

    ``graph``/``plan`` types vary by mode: a :class:`repro.graph.csr.Graph`
    + :class:`ExecutionPlan` for plain/induced, a
    :class:`repro.graph.labeled.LabeledGraph` + :class:`ExecutionPlan`
    (plus ``lpattern``) for labeled, a
    :class:`repro.graph.digraph.DiGraph` +
    :class:`repro.core.directed.DirectedPlan` for directed.

    ``generated`` optionally carries the kernel the planner already
    compiled, so the compiled backend never re-generates it.
    """

    graph: Any
    plan: Any
    mode: str = "plain"
    lpattern: Any = None
    generated: GeneratedCounter | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}: expected one of {MODES}")
        if self.mode == "labeled" and self.lpattern is None:
            raise ValueError("labeled contexts need the labeled pattern")


def make_engine(ctx: MatchContext):
    """The interpreter engine matching a context's mode.

    This is the single place that knows which engine class implements
    which semantics; the interpreter and parallel backends (master *and*
    workers) all build their engines here.
    """
    if ctx.mode == "plain":
        return Engine(ctx.graph, ctx.plan)
    if ctx.mode == "induced":
        from repro.core.induced import InducedEngine

        return InducedEngine(ctx.graph, ctx.plan)
    if ctx.mode == "labeled":
        from repro.core.labeled import LabeledEngine

        return LabeledEngine(ctx.graph, ctx.plan, ctx.lpattern)
    if ctx.mode == "directed":
        from repro.core.directed import DirectedEngine

        return DirectedEngine(ctx.graph, ctx.plan)
    raise ValueError(f"unknown mode {ctx.mode!r}")  # pragma: no cover


def make_prefix_counter(
    ctx: MatchContext, split_depth: int, worker_backend: str
) -> tuple[Any, str]:
    """Build a worker-side ``prefix -> raw count`` callable via the registry.

    ``worker_backend="compiled"`` gets a generated kernel when the
    context supports one (plain mode, valid split) and falls back to
    the interpreter engine otherwise.  Returns ``(counter, effective)``
    where ``effective`` names what the counter actually is (post-
    fallback), so callers report it rather than re-deriving the policy.
    """
    if (
        worker_backend == "compiled"
        and ctx.mode == "plain"
        and isinstance(ctx.plan, ExecutionPlan)
        and 1 <= split_depth < ctx.plan.n_loops
    ):
        kernel = compile_prefix_function(ctx.plan, split_depth)
        graph = ctx.graph
        return (lambda prefix: kernel(graph, prefix)), "compiled"
    return make_engine(ctx).count_prefix, "interpreter"


# ---------------------------------------------------------------------------
# the backend interface and registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can execute, declared up front.

    ``supports(ctx)`` answers "can you run *this* context" (it may
    inspect the concrete plan); capabilities answer the coarser
    questions planners and UIs need *before* a context exists — which
    matching modes the backend covers, whether it can execute an
    IEP-suffix plan, whether it enumerates, and whether it consumes
    generated kernels (so the planner knows codegen would be wasted).
    :class:`~repro.core.session.MatchSession` uses these to plan for the
    preferred backend instead of guessing, and the CLI ``backends``
    command reports them verbatim.
    """

    #: matching modes (subset of :data:`MODES`) the backend executes.
    modes: frozenset = frozenset()
    #: can execute plans compiled with an IEP suffix (``iep_k > 0``).
    iep: bool = True
    #: implements :meth:`ExecutionBackend.enumerate_embeddings`.
    enumeration: bool = False
    #: consumes pre-generated kernels (``MatchContext.generated``).
    generated_kernels: bool = False
    #: emits fine-grained spans (per-depth / per-task) under the
    #: session's ``execute`` span when tracing is enabled — conformance
    #: asserts traced backends actually attach them.  Backends whose
    #: hot path is per-embedding recursion (interpreter), generated
    #: code (compiled) or a fork pool (parallel, worker side) stay
    #: ``False``: they surface only the coarse ``execute`` span.
    traced: bool = False

    def supports_mode(self, mode: str) -> bool:
        return mode in self.modes


class ExecutionBackend:
    """Strategy interface: how to execute a :class:`MatchContext`."""

    #: registry key; subclasses must override.
    name: str = ""
    #: whether :meth:`enumerate_embeddings` is implemented.
    supports_enumeration: bool = False
    #: coarse capability flags; subclasses must override.
    capabilities: BackendCapabilities = BackendCapabilities()

    def supports(self, ctx: MatchContext) -> bool:
        """Whether this backend can count ``ctx``."""
        raise NotImplementedError

    def count(self, ctx: MatchContext) -> int:
        raise NotImplementedError

    def enumerate_embeddings(
        self, ctx: MatchContext, limit: int | None = None
    ) -> Iterator[tuple[int, ...]]:
        raise BackendUnsupportedError(
            f"backend {self.name!r} does not enumerate embeddings"
        )

    def _require(self, ctx: MatchContext) -> None:
        if not self.supports(ctx):
            raise BackendUnsupportedError(
                f"backend {self.name!r} does not support mode {ctx.mode!r} "
                f"(plan type {type(ctx.plan).__name__})"
            )

    def describe(self) -> str:
        doc = (type(self).__doc__ or "").strip().splitlines()
        return doc[0] if doc else ""


_REGISTRY: dict[str, type[ExecutionBackend]] = {}


def register_backend(cls: type[ExecutionBackend]) -> type[ExecutionBackend]:
    """Class decorator adding a backend to the registry (last wins)."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty `name`")
    _REGISTRY[cls.name] = cls
    return cls


def backend_names() -> list[str]:
    """Registered backend names, registration order."""
    return list(_REGISTRY)


@dataclass(frozen=True)
class BackendInfo:
    """One registry entry: the class plus its declared capabilities."""

    name: str
    cls: type[ExecutionBackend]
    capabilities: BackendCapabilities

    @property
    def supports_enumeration(self) -> bool:
        return self.cls.supports_enumeration

    def summary(self) -> str:
        doc = (self.cls.__doc__ or "").strip().splitlines()
        return doc[0] if doc else ""


def available_backends() -> dict[str, BackendInfo]:
    """Registered backends with their capability flags (name -> info).

    The authoritative answer to "which backend can serve this context":
    each entry reports the modes it executes, IEP-plan support,
    enumeration support and whether it consumes generated kernels —
    consumers (session planning, the CLI ``backends`` command) read
    these flags instead of probing backend instances.
    """
    return {
        name: BackendInfo(name=name, cls=cls, capabilities=cls.capabilities)
        for name, cls in _REGISTRY.items()
    }


def capabilities_of(
    spec: "str | ExecutionBackend | type[ExecutionBackend] | None",
) -> BackendCapabilities | None:
    """The capability flags a backend spec declares, or ``None``.

    Accepts everything a ``backend=`` parameter does (a registered name,
    an instance, a class, or ``None`` for "no preference").  An unknown
    *name* also returns ``None`` — resolution errors belong to
    :func:`get_backend` at execution time, not to query construction.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        cls = _REGISTRY.get(spec)
        return cls.capabilities if cls is not None else None
    if isinstance(spec, ExecutionBackend):
        return spec.capabilities
    if isinstance(spec, type) and issubclass(spec, ExecutionBackend):
        return spec.capabilities
    return None


def candidate_backends(
    ctx: MatchContext, *, for_enumeration: bool = False
) -> list[BackendInfo]:
    """Registry entries whose *declared* capabilities cover a context.

    Capability-aware pre-filtering for selectors (notably the ``auto``
    backend's profile-choice walk): mode coverage, IEP-plan support when
    the plan carries an IEP suffix, and enumeration support when the
    caller needs embeddings.  Delegating pseudo-backends (``is_meta``)
    are excluded — a selector must land on a backend that executes.
    The definitive per-plan answer remains ``instance.supports(ctx)``;
    this filter only rules out what the flags already rule out.
    """
    plan_iep = getattr(ctx.plan, "iep_k", 0) > 0
    out: list[BackendInfo] = []
    for info in available_backends().values():
        if getattr(info.cls, "is_meta", False):
            continue
        caps = info.capabilities
        if not caps.supports_mode(ctx.mode):
            continue
        if plan_iep and not caps.iep:
            continue
        if for_enumeration and not info.supports_enumeration:
            continue
        out.append(info)
    return out


def get_backend(name: str, **options) -> ExecutionBackend:
    """Instantiate a registered backend; ``options`` go to its ctor."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}: registered backends are {backend_names()}"
        ) from None
    return cls(**options)


def resolve_backend(spec: "str | ExecutionBackend | None") -> ExecutionBackend | None:
    """Normalise a user-facing backend spec: name, instance, or None."""
    if spec is None or isinstance(spec, ExecutionBackend):
        return spec
    if isinstance(spec, str):
        return get_backend(spec)
    raise TypeError(
        f"backend must be a name, ExecutionBackend instance or None, got {spec!r}"
    )


#: the no-preference selection order: the first backend that supports
#: the call runs it.  Counts land on the bulk frontier engine, then on
#: generated kernels, then on the interpreter; enumeration skips the
#: counting-only ``compiled``.
DEFAULT_ORDER = ("vectorised", "compiled", "interpreter")


def _serves(
    backend: ExecutionBackend, ctx: MatchContext, for_enumeration: bool
) -> bool:
    return backend.supports(ctx) and (
        not for_enumeration or backend.supports_enumeration
    )


def select_backend(
    ctx: MatchContext,
    requested: "str | ExecutionBackend | None" = None,
    *,
    for_enumeration: bool = False,
) -> ExecutionBackend:
    """Pick the backend for a context.

    * no request: the first backend of :data:`DEFAULT_ORDER` that
      supports the call (the interpreter serves every mode, so the walk
      always ends);
    * explicit request: honoured, except that a backend that cannot
      serve the call (wrong mode or plan, or enumeration from a
      counting-only backend) is replaced by the interpreter — the
      fallback that keeps ``backend="compiled"`` usable as a blanket
      preference across enumerate/induced/labeled/directed calls.  Each
      replacement increments ``repro_backend_fallbacks_total``.
    """
    backend = resolve_backend(requested)
    if backend is None:
        for name in DEFAULT_ORDER:
            backend = get_backend(name)
            if _serves(backend, ctx, for_enumeration):
                return backend
        return backend
    if not _serves(backend, ctx, for_enumeration):
        ran = get_backend("interpreter")
        obs_metrics.BACKEND_FALLBACKS.labels(
            requested=backend.name, ran=ran.name
        ).inc()
        return ran
    return backend


# ---------------------------------------------------------------------------
# the built-in backends
# ---------------------------------------------------------------------------
@register_backend
class InterpreterBackend(ExecutionBackend):
    """Nested-loop interpreter — every mode, counting and enumeration."""

    name = "interpreter"
    supports_enumeration = True
    capabilities = BackendCapabilities(
        modes=frozenset(MODES), iep=True, enumeration=True
    )

    def supports(self, ctx: MatchContext) -> bool:
        return ctx.mode in MODES

    def count(self, ctx: MatchContext) -> int:
        self._require(ctx)
        with span("interpret", mode=ctx.mode):
            return make_engine(ctx).count()

    def enumerate_embeddings(self, ctx, limit=None):
        self._require(ctx)
        return make_engine(ctx).enumerate_embeddings(limit=limit)


@register_backend
class PreSliceBackend(ExecutionBackend):
    """Interpreter variant slicing restriction bounds before intersecting."""

    name = "preslice"
    supports_enumeration = True
    capabilities = BackendCapabilities(
        modes=frozenset({"plain"}), iep=True, enumeration=True
    )

    def supports(self, ctx: MatchContext) -> bool:
        return ctx.mode == "plain" and isinstance(ctx.plan, ExecutionPlan)

    def count(self, ctx: MatchContext) -> int:
        self._require(ctx)
        with span("preslice"):
            return PreSliceEngine(ctx.graph, ctx.plan).count()

    def enumerate_embeddings(self, ctx, limit=None):
        self._require(ctx)
        return PreSliceEngine(ctx.graph, ctx.plan).enumerate_embeddings(limit=limit)


def compile_for_context(ctx: MatchContext) -> GeneratedCounter:
    """Generate the kernel matching a context's semantics.

    The single mode -> generator dispatch: the compiled backend and the
    session's kernel cache both go through here, so a context is never
    paired with a kernel of the wrong semantics.
    """
    if ctx.mode == "plain":
        return compile_plan_function(ctx.plan)
    if ctx.mode == "induced":
        return compile_induced_function(ctx.plan)
    if ctx.mode == "labeled":
        return compile_labeled_function(ctx.plan, ctx.lpattern)
    if ctx.mode == "directed":
        return compile_directed_function(ctx.plan)
    raise BackendUnsupportedError(
        f"no kernel generator for mode {ctx.mode!r}"
    )


@register_backend
class CompiledBackend(ExecutionBackend):
    """Generated specialised code (the paper's execution path); count only."""

    name = "compiled"
    capabilities = BackendCapabilities(
        modes=frozenset({"plain", "induced", "labeled", "directed"}),
        iep=True,
        generated_kernels=True,
    )

    def supports(self, ctx: MatchContext) -> bool:
        if ctx.mode == "directed":
            # Directed kernels are innermost-count variants like the
            # labeled/induced ones: IEP-suffix plans fall back (the
            # session plans directed queries IEP-free anyway).
            return isinstance(ctx.plan, DirectedPlan) and ctx.plan.iep_k == 0
        if not isinstance(ctx.plan, ExecutionPlan):
            return False
        if ctx.mode == "plain":
            return True
        # Labeled/induced kernels are innermost-count variants: the IEP
        # arithmetic assumes plain edge semantics, so an IEP-suffix plan
        # must fall back (the session plans these IEP-free anyway).
        return ctx.mode in ("induced", "labeled") and ctx.plan.iep_k == 0

    def count(self, ctx: MatchContext) -> int:
        self._require(ctx)
        generated = ctx.generated
        regenerated = (
            generated is None
            or generated.plan is not ctx.plan
            or generated.mode != ctx.mode
        )
        if regenerated:
            generated = compile_for_context(ctx)
        with span("kernel", mode=ctx.mode, regenerated=regenerated):
            return generated(ctx.graph)


@register_backend
class ParallelBackend(ExecutionBackend):
    """Multiprocess master/worker execution; workers run compiled kernels.

    Constructor options: ``n_workers``, ``split_depth``, ``chunksize``
    and ``worker_backend`` ("compiled" default, "interpreter" to force
    interpreted workers) — all forwarded to
    :func:`repro.runtime.parallel.parallel_count_ctx`.
    """

    name = "parallel"
    # generated_kernels stays False: workers compile their own *prefix*
    # kernels (make_prefix_counter); a whole-plan kernel shipped in the
    # context is never executed, so planning one would be pure waste.
    capabilities = BackendCapabilities(modes=frozenset(MODES), iep=True)

    def __init__(
        self,
        *,
        n_workers: int | None = None,
        split_depth: int | None = None,
        chunksize: int = 8,
        worker_backend: str = "compiled",
    ):
        self.n_workers = n_workers
        self.split_depth = split_depth
        self.chunksize = chunksize
        self.worker_backend = worker_backend

    def supports(self, ctx: MatchContext) -> bool:
        # Every engine family implements the prefix-task protocol; a
        # 1-loop plan has no outer loop to split on, so fall back.
        return ctx.mode in MODES and ctx.plan.n_loops >= 2

    def count(self, ctx: MatchContext) -> int:
        self._require(ctx)
        from repro.runtime.parallel import parallel_count_ctx

        return parallel_count_ctx(
            ctx,
            n_workers=self.n_workers,
            split_depth=self.split_depth,
            chunksize=self.chunksize,
            worker_backend=self.worker_backend,
        ).count


def plain_context(graph, plan_or_config, generated: GeneratedCounter | None = None
                  ) -> MatchContext:
    """Convenience: wrap a plan/configuration as a plain-mode context."""
    if isinstance(plan_or_config, Configuration):
        plan = plan_or_config.compile()
    elif isinstance(plan_or_config, ExecutionPlan):
        plan = plan_or_config
    else:
        raise TypeError(
            f"expected ExecutionPlan or Configuration, got {type(plan_or_config)!r}"
        )
    return MatchContext(graph=graph, plan=plan, generated=generated)


# Registering the vectorised frontier and distributed backends requires
# this module to be fully defined (they subclass ExecutionBackend), hence
# the tail imports: importing the registry always brings the full
# backend set with it.
from repro.core import vectorised as _vectorised  # noqa: E402, F401
from repro.runtime import distributed as _distributed  # noqa: E402, F401
from repro.core import autotune as _autotune  # noqa: E402, F401

"""The pluggable execution-backend layer: one matching core, many executors.

GraphPi's headline speedup comes from *generating* specialised code per
(schedule, restriction-set) configuration instead of interpreting it
(§III "Code Generation and Compilation", Fig. 5(b)).  That only pays
off if the generated kernel is the path every frontend actually takes —
so this module gives the system a single execution seam:

* :class:`MatchContext` — everything needed to execute one planned
  matching job: the data graph, the compiled plan, the matching mode
  (plain / induced / labeled / directed) and any pre-generated kernel.
  The plan carries the mode's operations (:mod:`repro.core.config`), so
  no executor dispatches on the mode; the context checks once that the
  graph kind, the mode and the plan agree.
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
from importlib import import_module
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.config import ExecutionPlan
from repro.core.engine import Engine
from repro.graph.csr import Graph
from repro.graph.digraph import DiGraph
from repro.graph.labeled import LabeledGraph
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span

if TYPE_CHECKING:
    from repro.core.codegen import GeneratedCounter

#: matching semantics a context can carry; backends opt into each.
MODES = ("plain", "induced", "labeled", "directed")

#: the modes whose plans can carry an IEP suffix (induced cannot: its
#: anti-edges make the inner candidate sets interact).
IEP_MODES = frozenset({"plain", "labeled", "directed"})


class BackendUnsupportedError(ValueError):
    """Raised when a backend is asked to execute a context it cannot."""


@dataclass(frozen=True)
class MatchContext:
    """One executable matching job, backend-agnostic.

    ``plan`` is an :class:`ExecutionPlan` lowered for ``mode``.  The
    graph kind follows the mode: a :class:`repro.graph.digraph.DiGraph`
    for directed contexts (and for those only), a
    :class:`repro.graph.labeled.LabeledGraph` for labeled ones, and a
    :class:`repro.graph.csr.Graph` — or a labeled graph, whose structure
    is read — for plain and induced ones.

    ``generated`` optionally carries the kernel the planner already
    compiled, so the compiled backend never re-generates it.
    """

    graph: Any
    plan: Any
    mode: str = "plain"
    generated: GeneratedCounter | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}: expected one of {MODES}")
        plan_mode = getattr(self.plan, "mode", None)
        if plan_mode != self.mode:
            raise ValueError(
                f"a {self.mode} context needs a plan lowered for {self.mode} "
                f"matching, got a {plan_mode or type(self.plan).__name__} plan"
            )
        if self.mode == "directed":
            fits = isinstance(self.graph, DiGraph)
        elif self.mode == "labeled":
            fits = isinstance(self.graph, LabeledGraph)
        else:
            fits = isinstance(self.graph, (Graph, LabeledGraph))
        if not fits:
            raise TypeError(
                f"a {self.mode} context cannot run on a "
                f"{type(self.graph).__name__}: directed contexts need a "
                "DiGraph (and a DiGraph serves only them), labeled ones a "
                "LabeledGraph, plain and induced ones a Graph or LabeledGraph"
            )
        if self.mode != "labeled" and isinstance(self.graph, LabeledGraph):
            # plain and induced matching read the structure only
            object.__setattr__(self, "graph", self.graph.graph)


# ---------------------------------------------------------------------------
# the backend interface and registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can execute, declared up front.

    ``supports(ctx)`` answers "can you run *this* context" (it may
    inspect the concrete plan); capabilities answer the coarser
    questions planners and UIs need *before* a context exists — which
    matching modes the backend covers, in which modes it can execute an
    IEP-suffix plan, whether it enumerates, and whether it consumes
    generated kernels (so the planner knows codegen would be wasted).
    :class:`~repro.core.session.MatchSession` uses these to plan for the
    preferred backend instead of guessing, and the CLI ``backends``
    command reports them verbatim.
    """

    #: matching modes (subset of :data:`MODES`) the backend executes.
    modes: frozenset = frozenset()
    #: modes whose plans the backend executes with an IEP suffix
    #: (``iep_k > 0``); elsewhere the session plans IEP-free for it.
    iep_modes: frozenset = frozenset()
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

    def supports_iep(self, mode: str) -> bool:
        return mode in self.iep_modes


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


#: name -> class; a deferred built-in holds ``None`` until first use.
_REGISTRY: dict[str, type[ExecutionBackend] | None] = {}

#: built-in backends registered by importing their defining module on
#: first use, so loading the registry (every ``repro count``) does not
#: load the distributed runtime.
_DEFERRED = {"distributed": "repro.runtime.distributed"}


def register_backend(cls: type[ExecutionBackend]) -> type[ExecutionBackend]:
    """Class decorator adding a backend to the registry (last wins)."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty `name`")
    _REGISTRY[cls.name] = cls
    return cls


def _backend_class(name: str) -> type[ExecutionBackend] | None:
    """The class registered as ``name``, importing a deferred built-in."""
    if _REGISTRY.get(name) is None and name in _DEFERRED:
        import_module(_DEFERRED[name])
    return _REGISTRY.get(name)


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
    each entry reports the modes it executes, the modes it runs IEP
    plans in, enumeration support and whether it consumes generated
    kernels — consumers (session planning, the CLI ``backends`` command)
    read these flags instead of probing backend instances.
    """
    classes = {name: _backend_class(name) for name in backend_names()}
    return {
        name: BackendInfo(name=name, cls=cls, capabilities=cls.capabilities)
        for name, cls in classes.items()
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
        cls = _backend_class(spec)
        return cls.capabilities if cls is not None else None
    if isinstance(spec, ExecutionBackend):
        return spec.capabilities
    if isinstance(spec, type) and issubclass(spec, ExecutionBackend):
        return spec.capabilities
    return None


def get_backend(name: str, **options) -> ExecutionBackend:
    """Instantiate a registered backend; ``options`` go to its ctor."""
    cls = _backend_class(name)
    if cls is None:
        raise ValueError(
            f"unknown backend {name!r}: registered backends are {backend_names()}"
        )
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
        modes=frozenset(MODES),
        iep_modes=IEP_MODES,
        enumeration=True,
    )

    def supports(self, ctx: MatchContext) -> bool:
        return ctx.mode in MODES

    def count(self, ctx: MatchContext) -> int:
        self._require(ctx)
        with span("interpret", mode=ctx.mode):
            return Engine(ctx.graph, ctx.plan).count()

    def enumerate_embeddings(self, ctx, limit=None):
        self._require(ctx)
        return Engine(ctx.graph, ctx.plan).enumerate_embeddings(limit=limit)


def has_kernel(plan: ExecutionPlan) -> bool:
    """Whether code generation specialises ``plan``: every IEP-free
    plan, and IEP suffixes under plain edge semantics (the generated
    IEP arithmetic has no label filter and no directed expansion)."""
    return plan.iep_k == 0 or plan.mode == "plain"


def compile_for_context(ctx: MatchContext) -> GeneratedCounter:
    """Generate the kernel of a context's plan.

    The one kernel entry point: the compiled backend and the session's
    kernel cache both go through here, and the generator reads the
    plan's operations, so a kernel always has its plan's semantics.
    """
    from repro.core.codegen import compile_plan_function

    return compile_plan_function(ctx.plan)


@register_backend
class CompiledBackend(ExecutionBackend):
    """Generated specialised code (the paper's execution path); count only."""

    name = "compiled"
    capabilities = BackendCapabilities(
        modes=frozenset({"plain", "induced", "labeled", "directed"}),
        iep_modes=frozenset({"plain"}),
        generated_kernels=True,
    )

    def supports(self, ctx: MatchContext) -> bool:
        # Outside plain mode the kernels are innermost-count variants:
        # an IEP-suffix plan falls back (the session plans IEP-free for
        # a compiled preference, see ``iep_modes``).
        return has_kernel(ctx.plan)

    def count(self, ctx: MatchContext) -> int:
        self._require(ctx)
        generated = ctx.generated
        regenerated = generated is None or generated.plan is not ctx.plan
        if regenerated:
            generated = compile_for_context(ctx)
        with span("kernel", mode=ctx.mode, regenerated=regenerated):
            return generated(ctx.graph)


@register_backend
class ParallelBackend(ExecutionBackend):
    """Multiprocess root-range tasks; workers run the frontier engine.

    Constructor option: ``n_workers`` (default: the host's CPU count),
    forwarded to :func:`repro.runtime.parallel.parallel_count_ctx`.
    Each worker counts its tasks with
    :func:`repro.runtime.tasks.task_counter`, which falls back to the
    interpreter for plans the frontier engine does not serve.
    """

    name = "parallel"
    # generated_kernels stays False: no worker runs a whole-plan kernel
    # shipped in the context, so planning one would be pure waste.  The
    # interpreter task counter runs an IEP suffix in every mode but the
    # induced one.
    capabilities = BackendCapabilities(modes=frozenset(MODES), iep_modes=IEP_MODES)

    def __init__(self, *, n_workers: int | None = None):
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers

    def supports(self, ctx: MatchContext) -> bool:
        # Tasks split the outermost loop; a 1-loop plan has no inner
        # loops to hand the workers, so fall back.
        return ctx.mode in MODES and ctx.plan.n_loops >= 2

    def count(self, ctx: MatchContext) -> int:
        self._require(ctx)
        from repro.runtime.parallel import parallel_count_ctx

        return parallel_count_ctx(ctx, n_workers=self.n_workers).count


# Registering the vectorised frontier backend requires this module to be
# fully defined (it subclasses ExecutionBackend), hence the tail import:
# importing the registry brings the default-order backends with it, and
# reserves the deferred built-ins' places in the registration order.
from repro.core import vectorised as _vectorised  # noqa: E402, F401

_REGISTRY.update(dict.fromkeys(_DEFERRED))

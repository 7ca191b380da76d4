"""The declarative query layer: one object describes any matching job.

GraphPi's user contract (§III) is *"input a pattern and a data graph"*,
but the repository historically honoured it only for plain undirected
matching — labeled, vertex-induced and directed matching each had their
own entry points.  :class:`MatchQuery` restores the single contract: a
frozen, declarative description of *what* to match —

* the pattern (a :class:`~repro.pattern.pattern.Pattern`,
  :class:`~repro.pattern.labeled.LabeledPattern` or
  :class:`~repro.pattern.directed.DiPattern`; the matching ``mode`` is
  inferred from the type, or can be given explicitly and is validated),
* the matching ``semantics`` — ``"edge"`` (GraphPi/Fractal/Peregrine:
  every pattern edge must be present, extra edges allowed) or
  ``"induced"`` (AutoMine/GraphZero, §V-A: pattern non-edges must be
  absent too).  GraphZero's differing definition is exactly why this is
  a first-class option rather than a separate module,
* planner knobs (``use_iep``, ``max_restriction_sets``,
  ``dedup_schedules``, ``use_codegen``) and an execution ``backend``
  preference.

A query is *inert*: it holds no graph and does no work.  Binding it to a
data graph and executing it is :class:`repro.core.session.MatchSession`'s
job, which caches plans keyed by :attr:`MatchQuery.fingerprint` — the
canonical tuple of every plan-affecting field.  The ``backend``
preference itself is deliberately excluded from the fingerprint: it
changes how a plan *runs*, not which plan is chosen.  What *is*
fingerprinted is the resolved IEP choice, which consults the preferred
backend's declared capabilities (a backend that declares it cannot
execute the mode's IEP-suffix plans defaults to an IEP-free plan), so
capability-driven planning still caches correctly.

Execution returns a :class:`MatchResult` — a structured record (count,
backend used, plan provenance, cache hit/miss, timings) that still
behaves like the bare ``int`` the old API returned.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.core.backend import capabilities_of
from repro.pattern.directed import DiPattern
from repro.pattern.labeled import LabeledPattern
from repro.pattern.pattern import Pattern

#: matching modes a query can declare (mirrors repro.core.backend.MODES;
#: "induced" is expressed as semantics="induced" on a plain query).
QUERY_MODES = ("plain", "labeled", "directed")

#: matching semantics (§V-A): edge-induced vs vertex-induced.
SEMANTICS = ("edge", "induced")


def _infer_mode(pattern: Any) -> str:
    if isinstance(pattern, LabeledPattern):
        return "labeled"
    if isinstance(pattern, DiPattern):
        return "directed"
    if isinstance(pattern, Pattern):
        return "plain"
    raise TypeError(
        "pattern must be a Pattern, LabeledPattern or DiPattern, "
        f"got {type(pattern).__name__}"
    )


@dataclass(frozen=True)
class MatchQuery:
    """A declarative pattern-matching request (pattern + options, no graph).

    Parameters
    ----------
    pattern:
        What to match.  The pattern type implies the ``mode``.
    mode:
        ``"plain"`` / ``"labeled"`` / ``"directed"``; optional — inferred
        from the pattern type when ``None``, validated against it when
        given.
    semantics:
        ``"edge"`` (default, the GraphPi definition) or ``"induced"``
        (vertex-induced, AutoMine/GraphZero).  ``"induced"`` is only
        defined for plain undirected patterns.
    use_iep:
        ``None`` picks the mode default (IEP on for plain edge-semantics
        and directed counting, off for labeled queries); an explicit
        bool forces it.  The default is also off when the ``backend``
        preference declares it cannot run that mode's IEP plans.
        Induced semantics cannot use IEP (anti-edges make the inner
        candidate sets interact, see :mod:`repro.core.induced`).
    backend:
        Execution preference — a registered backend name, an
        :class:`~repro.core.backend.ExecutionBackend` instance, or
        ``None`` for the default order (vectorised, compiled,
        interpreter — the first that supports the call).  Not part of the plan
        fingerprint: backends change how a plan runs, not which plan the
        planner picks.
    max_restriction_sets / dedup_schedules / use_codegen:
        Planner knobs; all three are plan-affecting and therefore part
        of the fingerprint.
    """

    pattern: Any
    mode: str | None = None
    semantics: str = "edge"
    use_iep: bool | None = None
    backend: Any = None
    max_restriction_sets: int | None = 64
    dedup_schedules: bool = True
    use_codegen: bool = True

    def __post_init__(self):
        inferred = _infer_mode(self.pattern)
        if self.mode is None:
            object.__setattr__(self, "mode", inferred)
        elif self.mode not in QUERY_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}: expected one of {QUERY_MODES}"
            )
        elif self.mode != inferred:
            raise ValueError(
                f"mode {self.mode!r} does not match the pattern type "
                f"{type(self.pattern).__name__} (implies {inferred!r})"
            )
        if self.semantics not in SEMANTICS:
            raise ValueError(
                f"unknown semantics {self.semantics!r}: expected one of {SEMANTICS}"
            )
        if self.semantics == "induced" and self.mode != "plain":
            raise ValueError(
                "vertex-induced semantics is only defined for plain "
                f"undirected patterns, not mode {self.mode!r}"
            )
        if self.semantics == "induced" and self.use_iep:
            raise ValueError(
                "vertex-induced semantics cannot use IEP: anti-edge "
                "constraints make the inner candidate sets interact"
            )
        if not self._structural_pattern().is_connected():
            raise ValueError("pattern matching requires a connected pattern")

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def _structural_pattern(self) -> Pattern | DiPattern:
        """The object carrying connectivity (labeled unwraps to structure)."""
        if self.mode == "labeled":
            return self.pattern.pattern
        return self.pattern

    @property
    def resolved_use_iep(self) -> bool:
        """The effective IEP choice after applying mode defaults.

        The mode default (IEP on for plain edge-semantics and directed
        counting) is additionally gated on the backend preference's
        declared capabilities: a backend whose ``iep_modes`` lacks the
        query's mode gets an IEP-free plan rather than a plan it would
        have to bounce to the interpreter.  An explicit ``use_iep=True``
        still wins — and then the fallback applies.
        """
        if self.use_iep is not None:
            return bool(self.use_iep)
        if self.mode == "labeled" or self.semantics != "edge":
            return False
        caps = capabilities_of(self.backend)
        return caps is None or caps.supports_iep(self.mode)

    @property
    def fingerprint(self) -> tuple:
        """Canonical hashable key of every plan-affecting field.

        Two queries with equal fingerprints compile to the same plan on
        the same graph; :class:`~repro.core.session.MatchSession` uses
        ``(fingerprint, graph stats signature)`` as its cache key.  The
        ``backend`` preference is deliberately excluded.  Computed once
        per query object (it sits on the session's hot path).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        p = self.pattern
        if self.mode == "labeled":
            structure: tuple = (
                "labeled",
                p.pattern.n_vertices,
                tuple(p.pattern.edges),
                tuple(p.labels),
            )
        elif self.mode == "directed":
            structure = ("directed", p.n_vertices, tuple(p.arcs))
        else:
            structure = ("plain", p.n_vertices, tuple(p.edges))
        fp = (
            structure,
            self.semantics,
            self.resolved_use_iep,
            self.max_restriction_sets,
            self.dedup_schedules,
            self.use_codegen,
        )
        object.__setattr__(self, "_fingerprint", fp)
        return fp

    def for_enumeration(self) -> "MatchQuery":
        """The variant used to enumerate embeddings: IEP off.

        IEP absorbs the innermost loops into counting formulas, so an
        enumerating execution needs a plan compiled with ``iep_k=0`` —
        cached under its own fingerprint.
        """
        if self.use_iep is False:
            return self
        return dataclasses.replace(self, use_iep=False)

    def with_backend(self, backend: Any) -> "MatchQuery":
        """The same query with a different execution preference."""
        return dataclasses.replace(self, backend=backend)

    def describe(self) -> str:
        p = self._structural_pattern()
        name = getattr(p, "name", "") or f"{p.n_vertices}v"
        return (
            f"{name} mode={self.mode} semantics={self.semantics} "
            f"iep={self.resolved_use_iep}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MatchQuery({self.describe()})"


def as_query(query_or_pattern: Any, **options) -> MatchQuery:
    """Coerce a pattern (or pass through a query) into a :class:`MatchQuery`.

    Every session entry point accepts either; ``options`` are applied
    only when constructing a fresh query from a bare pattern (passing
    both a ready query and options is an error — mutate the query with
    ``dataclasses.replace`` instead).
    """
    if isinstance(query_or_pattern, MatchQuery):
        if options:
            raise TypeError(
                "cannot combine a ready MatchQuery with extra options "
                f"{sorted(options)}; use dataclasses.replace on the query"
            )
        return query_or_pattern
    return MatchQuery(pattern=query_or_pattern, **options)


@dataclass(frozen=True, eq=False)
class MatchResult:
    """A structured matching outcome that still acts like an ``int``.

    Comparison/``int()``/``__index__`` delegate to :attr:`count`, so
    historical call sites (``assert session.count(q) == 42``) keep
    working while new ones can inspect provenance and timings.
    """

    count: int
    backend: str
    mode: str
    semantics: str
    cache_hit: bool
    seconds_plan: float
    seconds_execute: float
    provenance: str
    fingerprint: tuple
    #: side-channel scaling profile, populated only when the executing
    #: backend implements ``count_with_report`` (the ``distributed``
    #: backend's :class:`~repro.runtime.distributed.DistributedReport`).
    distributed_report: Any = None
    #: how ``backend="auto"`` decided, populated only for auto-selected
    #: executions (an :class:`~repro.core.autotune.AutotuneReport` with
    #: the chosen delegate, decision source and predicted-vs-actual
    #: seconds; ``backend`` then reads ``"auto:<delegate>"``).
    autotune_report: Any = None
    #: the span tree for this execution (a :class:`~repro.obs.trace.Trace`),
    #: populated only when tracing is enabled and the sampler admitted
    #: this call (``repro.obs.enable()`` / ``repro count --explain``).
    trace: Any = None

    @property
    def seconds_total(self) -> float:
        return self.seconds_plan + self.seconds_execute

    # -- int-like behaviour --------------------------------------------
    @staticmethod
    def _value(other):
        if isinstance(other, MatchResult):
            return other.count
        if isinstance(other, (int, float)):
            return other
        return None

    def __int__(self) -> int:
        return self.count

    def __index__(self) -> int:
        return self.count

    def __eq__(self, other) -> bool:
        value = self._value(other)
        return NotImplemented if value is None else self.count == value

    def __lt__(self, other) -> bool:
        value = self._value(other)
        return NotImplemented if value is None else self.count < value

    def __le__(self, other) -> bool:
        value = self._value(other)
        return NotImplemented if value is None else self.count <= value

    def __gt__(self, other) -> bool:
        value = self._value(other)
        return NotImplemented if value is None else self.count > value

    def __ge__(self, other) -> bool:
        value = self._value(other)
        return NotImplemented if value is None else self.count >= value

    def __hash__(self) -> int:
        return hash(self.count)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        src = "cache hit" if self.cache_hit else "planned"
        return (
            f"MatchResult(count={self.count}, backend={self.backend!r}, "
            f"mode={self.mode}, semantics={self.semantics}, {src}, "
            f"plan={self.seconds_plan * 1e3:.1f}ms "
            f"exec={self.seconds_execute * 1e3:.1f}ms)"
        )

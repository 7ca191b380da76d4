"""Self-tuning backend selection: calibration profiles and the ``auto`` backend.

GraphPi's core move (§IV-C) is choosing among *candidate configurations*
by a cost model instead of a fixed rule.  This module promotes that idea
one level up, from schedule selection to whole-backend selection: the
system now has several conformance-tested execution backends plus knobs
(IEP, auxiliary-pruning mode, inner executors, task granularity), and
which combination wins depends on the workload — frontier execution
dominates on dense patterns over skewed graphs, generated scalar code on
tiny IEP-friendly patterns, the interpreter on 1-loop plans.

The pieces:

* **signatures** — a workload is bucketed by a *pattern signature*
  (matching mode with semantics folded in, pattern size, pattern edge
  count) and a *graph signature* (coarse log-scale buckets of edge
  count, average degree and degree skew).  Both are O(1) to compute —
  cheap enough to evaluate on every query — and deliberately coarse, so
  one measured workload generalises to its neighbourhood.
* :class:`CalibrationProfile` — the persisted result of a calibration
  sweep (:func:`run_calibration`, driven by ``tools/calibrate.py``):
  per (pattern signature, graph signature) bucket, geomean-aggregated
  seconds for every swept :class:`ProfileChoice` (backend + constructor
  options + IEP knob).  Versioned JSON on disk; loading is defensive —
  a corrupt file, an old schema version or a changed backend registry
  is *ignored with a warning* (:class:`ProfileWarning`), never a crash,
  and selection falls back to the static default order.
* :class:`AutoBackend` — registered as ``"auto"``: a delegating
  pseudo-backend that looks its context up in the active profile
  (exact bucket first, then nearest same-pattern bucket) and executes
  through the best *compatible* measured choice, falling back to
  :func:`~repro.core.backend.select_backend` when no profile entry
  applies.  Being registered means the cross-backend conformance suite
  auto-covers it like any other backend.
* the session integration (see :mod:`repro.core.session`) applies the
  chosen plan-level knob too: with ``use_iep=None`` and an ``auto``
  preference, the profile's winning IEP choice is folded into the query
  before planning, so ``backend="auto"`` can plan IEP-free for a
  vectorised winner and IEP-suffixed for a compiled one.  The chosen
  backend and predicted-vs-actual seconds are surfaced on
  :class:`~repro.core.query.MatchResult.autotune_report`.

Profiles travel: ``tools/calibrate.py`` writes one, ``repro backends
--profile PATH`` inspects it, ``REPRO_AUTOTUNE_PROFILE=PATH`` (or
:func:`set_active_profile`) activates it process-wide, and
``benchmarks/bench_autotune.py`` asserts that auto-selection stays
within 0.9x of the best static backend (geomean) on the sweep
workloads.  See ``docs/backends.md`` for the tuning guide.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.core.backend import (
    MODES,
    BackendCapabilities,
    ExecutionBackend,
    backend_names,
    candidate_backends,
    capabilities_of,
    get_backend,
    register_backend,
    select_backend,
)
from repro.graph.digraph import DiGraph
from repro.graph.labeled import LabeledGraph
from repro.pattern.directed import DiPattern
from repro.pattern.labeled import LabeledPattern

#: bump when the persisted JSON schema changes; older files are ignored.
PROFILE_VERSION = 1

#: environment variable naming a profile to activate lazily.
PROFILE_ENV = "REPRO_AUTOTUNE_PROFILE"


class ProfileWarning(UserWarning):
    """A calibration profile could not be used (corrupt, stale, missing)."""


class CalibrationError(RuntimeError):
    """The calibration sweep produced inconsistent measurements."""


# ---------------------------------------------------------------------------
# workload signatures
# ---------------------------------------------------------------------------
def fold_mode(mode: str, semantics: str) -> str:
    """The context-level mode: vertex-induced semantics folds into the mode."""
    return "induced" if semantics == "induced" else mode


def pattern_signature(mode: str, n_vertices: int, n_edges: int) -> tuple:
    """The pattern half of a bucket key: (folded mode, |V_p|, |E_p|)."""
    return (mode, int(n_vertices), int(n_edges))


def query_signature(query: Any) -> tuple:
    """:func:`pattern_signature` of a :class:`~repro.core.query.MatchQuery`."""
    p = query.pattern
    if isinstance(p, LabeledPattern):
        structure = p.pattern
        return pattern_signature(
            fold_mode(query.mode, query.semantics),
            structure.n_vertices,
            structure.n_edges,
        )
    if isinstance(p, DiPattern):
        return pattern_signature("directed", p.n_vertices, p.n_arcs)
    return pattern_signature(
        fold_mode(query.mode, query.semantics), p.n_vertices, p.n_edges
    )


def context_signature(ctx: Any) -> tuple:
    """:func:`pattern_signature` recovered from an executable context.

    Computed from the plan alone (every pattern edge appears exactly
    once as a dependency of the later-scheduled endpoint; a directed
    plan splits them across ``out_deps``/``in_deps``), so it agrees with
    :func:`query_signature` of the query that produced the plan.
    """
    plan = ctx.plan
    if ctx.mode == "directed":
        n_edges = sum(
            len(o) + len(i) for o, i in zip(plan.out_deps, plan.in_deps)
        )
    else:
        n_edges = sum(len(d) for d in plan.deps)
    return pattern_signature(ctx.mode, plan.n, n_edges)


def _log_bucket(value: float) -> int:
    """Coarse log2 bucket (0 for values <= 1)."""
    if value <= 1.0:
        return 0
    return int(round(math.log2(value)))


def graph_signature(graph: Any) -> tuple:
    """The graph half of a bucket key: log-scale (size, density, skew).

    O(1)-ish from the CSR header (no triangle count — this runs on every
    auto-selected query, and is memoised on the graph object since every
    graph type here is immutable): edge count, average degree and the
    max-degree/average-degree ratio, each rounded to a power-of-two
    bucket so nearby graphs share entries.
    """
    memo = getattr(graph, "_autotune_signature", None)
    if memo is not None:
        return memo
    original = graph
    if isinstance(graph, LabeledGraph):
        graph = graph.graph
    if isinstance(graph, DiGraph):
        n, m = graph.n_vertices, graph.n_arcs
        import numpy as np

        degrees = np.diff(graph.out_indptr) + np.diff(graph.in_indptr)
        max_degree = int(degrees.max()) if len(degrees) else 0
        avg = m / n if n else 0.0
    else:
        n, m = graph.n_vertices, graph.n_edges
        max_degree = graph.max_degree
        avg = 2.0 * m / n if n else 0.0
    size_bucket = _log_bucket(float(max(m, 1)))
    density_bucket = _log_bucket(avg + 1.0)
    skew_bucket = _log_bucket(max_degree / avg) if avg > 0 else 0
    sig = (size_bucket, density_bucket, skew_bucket)
    try:
        object.__setattr__(original, "_autotune_signature", sig)
    except (AttributeError, TypeError):  # pragma: no cover - slotted graphs
        pass
    return sig


def signature_distance(a: tuple, b: tuple) -> int:
    """L1 distance between two graph signatures (nearest-bucket metric)."""
    return sum(abs(int(x) - int(y)) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# profile contents
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProfileChoice:
    """One swept execution configuration: backend + options + IEP knob.

    ``options`` are the backend's constructor keywords as a sorted item
    tuple (hashable; converted to a dict at :func:`get_backend` time).
    ``use_iep`` is the *plan-level* knob: the query is planned with that
    IEP setting before the backend executes it; ``None`` means "planner
    default".
    """

    backend: str
    options: tuple[tuple[str, Any], ...] = ()
    use_iep: bool | None = None

    def options_dict(self) -> dict:
        return dict(self.options)

    def describe(self) -> str:
        opts = ", ".join(f"{k}={v}" for k, v in self.options)
        iep = "" if self.use_iep is None else f" iep={'on' if self.use_iep else 'off'}"
        return f"{self.backend}({opts}){iep}"

    @classmethod
    def make(cls, backend: str, options: dict | None = None,
             use_iep: bool | None = None) -> "ProfileChoice":
        items = tuple(sorted((options or {}).items()))
        return cls(backend=backend, options=items, use_iep=use_iep)


@dataclass(frozen=True)
class BucketEntry:
    """Aggregated measurements for one (pattern, graph) signature bucket."""

    pattern_sig: tuple
    graph_sig: tuple
    #: choice -> geomean seconds across the bucket's workloads.
    timings: tuple[tuple[ProfileChoice, float], ...]

    def ranked(self) -> list[tuple[ProfileChoice, float]]:
        """Choices fastest-first (sorted once — this sits on the
        per-query decision path)."""
        cached = self.__dict__.get("_ranked")
        if cached is None:
            cached = sorted(self.timings, key=lambda item: item[1])
            object.__setattr__(self, "_ranked", cached)
        return cached

    @property
    def best(self) -> tuple[ProfileChoice, float]:
        return self.ranked()[0]


@dataclass
class CalibrationProfile:
    """A persisted calibration result: bucketed per-choice cost model.

    The model is piecewise-constant over signature buckets: within a
    bucket, a choice's predicted cost is the geomean of its measured
    execution seconds across the sweep workloads that landed there.
    ``lookup`` serves the exact bucket when present and otherwise the
    nearest same-pattern bucket within ``max_distance`` — unseen graphs
    inherit the closest measured regime.
    """

    entries: dict[tuple, BucketEntry] = field(default_factory=dict)
    backends: tuple[str, ...] = ()
    version: int = PROFILE_VERSION
    created: str = ""
    host: str = ""
    n_workloads: int = 0
    #: (psig, gsig, plan-iep, enum) -> (choice, seconds, distance) memo
    #: of completed decision walks; the decision itself must stay in the
    #: low-microsecond range or it eats the margin it exists to win.
    _decisions: dict = field(default_factory=dict, repr=False, compare=False)

    # -- selection -----------------------------------------------------
    def lookup(
        self, pattern_sig: tuple, graph_sig: tuple, *, max_distance: int = 4
    ) -> tuple[BucketEntry, int] | None:
        """(entry, bucket distance) for a workload, or ``None``."""
        key = (tuple(pattern_sig), tuple(graph_sig))
        entry = self.entries.get(key)
        if entry is not None:
            return entry, 0
        best: tuple[BucketEntry, int] | None = None
        for (psig, gsig), candidate in self.entries.items():
            if psig != tuple(pattern_sig):
                continue
            distance = signature_distance(gsig, graph_sig)
            if distance <= max_distance and (best is None or distance < best[1]):
                best = (candidate, distance)
        return best

    # -- persistence ---------------------------------------------------
    def to_json(self) -> dict:
        return {
            "version": self.version,
            "created": self.created,
            "host": self.host,
            "backends": list(self.backends),
            "n_workloads": self.n_workloads,
            "entries": [
                {
                    "pattern": list(entry.pattern_sig),
                    "graph": list(entry.graph_sig),
                    "timings": [
                        {
                            "backend": choice.backend,
                            "options": choice.options_dict(),
                            "use_iep": choice.use_iep,
                            "seconds": seconds,
                        }
                        for choice, seconds in entry.ranked()
                    ],
                }
                for entry in self.entries.values()
            ],
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def from_json(cls, payload: dict) -> "CalibrationProfile":
        entries: dict[tuple, BucketEntry] = {}
        for row in payload.get("entries", []):
            psig = tuple(row["pattern"])
            gsig = tuple(row["graph"])
            timings = tuple(
                (
                    ProfileChoice.make(
                        t["backend"], t.get("options"), t.get("use_iep")
                    ),
                    float(t["seconds"]),
                )
                for t in row["timings"]
            )
            entries[(psig, gsig)] = BucketEntry(
                pattern_sig=psig, graph_sig=gsig, timings=timings
            )
        return cls(
            entries=entries,
            backends=tuple(payload.get("backends", ())),
            version=int(payload.get("version", -1)),
            created=str(payload.get("created", "")),
            host=str(payload.get("host", "")),
            n_workloads=int(payload.get("n_workloads", 0)),
        )

    def describe(self) -> str:
        return (
            f"{len(self.entries)} buckets from {self.n_workloads} workloads "
            f"(schema v{self.version}, backends: {', '.join(self.backends)})"
        )


def load_profile(path: str | Path) -> CalibrationProfile | None:
    """Load a profile defensively: any problem warns and returns ``None``.

    The failure modes this absorbs (each a :class:`ProfileWarning`, so
    auto-selection degrades to the static policy instead of crashing):

    * missing or unreadable file;
    * corrupt / non-JSON / structurally wrong contents;
    * a schema version other than :data:`PROFILE_VERSION`;
    * a backend registry that changed since calibration — measurements
      against a different backend set are not trustworthy, so the whole
      profile is invalidated (re-run ``tools/calibrate.py``).
    """
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        warnings.warn(
            f"calibration profile {path} is unreadable ({exc}); "
            "falling back to static backend selection",
            ProfileWarning,
            stacklevel=2,
        )
        return None
    try:
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("profile root must be a JSON object")
        profile = CalibrationProfile.from_json(payload)
    except (ValueError, KeyError, TypeError) as exc:
        warnings.warn(
            f"calibration profile {path} is corrupt ({exc}); "
            "falling back to static backend selection",
            ProfileWarning,
            stacklevel=2,
        )
        return None
    if profile.version != PROFILE_VERSION:
        warnings.warn(
            f"calibration profile {path} has schema version {profile.version}, "
            f"expected {PROFILE_VERSION}; ignoring it — re-run tools/calibrate.py",
            ProfileWarning,
            stacklevel=2,
        )
        return None
    if set(profile.backends) != set(backend_names()):
        warnings.warn(
            f"calibration profile {path} was calibrated against backends "
            f"{sorted(profile.backends)} but the registry now holds "
            f"{sorted(backend_names())}; ignoring it — re-run tools/calibrate.py",
            ProfileWarning,
            stacklevel=2,
        )
        return None
    return profile


# ---------------------------------------------------------------------------
# the active profile
# ---------------------------------------------------------------------------
_ACTIVE: CalibrationProfile | None = None
_ACTIVE_RESOLVED = False


def set_active_profile(
    profile: "CalibrationProfile | str | Path | None",
) -> CalibrationProfile | None:
    """Install the process-wide profile (a path loads it defensively)."""
    global _ACTIVE, _ACTIVE_RESOLVED
    if isinstance(profile, (str, Path)):
        profile = load_profile(profile)
    _ACTIVE = profile
    _ACTIVE_RESOLVED = True
    return _ACTIVE


def get_active_profile() -> CalibrationProfile | None:
    """The installed profile; first call consults ``REPRO_AUTOTUNE_PROFILE``."""
    global _ACTIVE, _ACTIVE_RESOLVED
    if not _ACTIVE_RESOLVED:
        _ACTIVE_RESOLVED = True
        env = os.environ.get(PROFILE_ENV)
        if env:
            _ACTIVE = load_profile(env)
    return _ACTIVE


# ---------------------------------------------------------------------------
# the auto backend
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AutotuneReport:
    """How one auto-selected execution was decided, surfaced on
    :attr:`~repro.core.query.MatchResult.autotune_report`."""

    chosen: str
    options: tuple[tuple[str, Any], ...] = ()
    #: "profile" (exact bucket), "profile-nearest" (bucket distance > 0)
    #: or "static" (no applicable entry; the default-order fallback).
    source: str = "static"
    predicted_seconds: float | None = None
    actual_seconds: float | None = None
    bucket_distance: int = 0
    #: a delegate's own side-channel report (e.g. DistributedReport).
    inner_report: Any = None

    def describe(self) -> str:
        opts = ", ".join(f"{k}={v}" for k, v in self.options)
        parts = [f"auto -> {self.chosen}({opts}) via {self.source}"]
        if self.predicted_seconds is not None:
            parts.append(f"predicted {self.predicted_seconds * 1e3:.2f}ms")
        if self.actual_seconds is not None:
            parts.append(f"actual {self.actual_seconds * 1e3:.2f}ms")
        return ", ".join(parts)


@register_backend
class AutoBackend(ExecutionBackend):
    """Profile-driven delegation to the calibrated-best backend per context."""

    name = "auto"
    supports_enumeration = True
    #: a delegating pseudo-backend: never its own delegation candidate.
    is_meta = True
    # IEP and kernel consumption are declared True so the planner keeps
    # its default behaviour (IEP-suffix plans stay available, kernels
    # are pre-generated for a compiled delegate); the session folds the
    # profile's *measured* IEP preference in before planning, which is
    # where an IEP-free plan for an IEP-free winner comes from.
    capabilities = BackendCapabilities(
        modes=frozenset(MODES),
        iep=True,
        enumeration=True,
        generated_kernels=True,
    )

    def __init__(self, *, profile: "CalibrationProfile | str | Path | None" = None):
        if isinstance(profile, (str, Path)):
            profile = load_profile(profile)
        self.profile = profile

    def active_profile(self) -> CalibrationProfile | None:
        return self.profile if self.profile is not None else get_active_profile()

    def supports(self, ctx) -> bool:
        # There is always a delegate: the interpreter covers every mode.
        return ctx.mode in MODES

    # -- the decision ---------------------------------------------------
    def _materialise(
        self, choice: ProfileChoice, ctx, *, for_enumeration: bool
    ) -> ExecutionBackend | None:
        """The backend instance a choice names, or ``None`` if it cannot
        serve this context (unregistered name, bad options, wrong mode,
        IEP mismatch with the already-compiled plan, no enumeration)."""
        if capabilities_of(choice.backend) is None:
            return None
        if choice.use_iep is not None:
            plan_iep = getattr(ctx.plan, "iep_k", 0) > 0
            if choice.use_iep != plan_iep:
                return None
        try:
            backend = get_backend(choice.backend, **choice.options_dict())
        except (TypeError, ValueError):
            return None
        if getattr(backend, "is_meta", False):
            return None
        if not backend.supports(ctx):
            return None
        if for_enumeration and not backend.supports_enumeration:
            return None
        return backend

    def decide(
        self, ctx, *, for_enumeration: bool = False
    ) -> tuple[ExecutionBackend, AutotuneReport]:
        """(delegate, report) for a context — profile first, static else."""
        profile = self.active_profile()
        if profile is not None:
            psig = context_signature(ctx)
            gsig = graph_signature(ctx.graph)
            memo_key = (
                psig, gsig, getattr(ctx.plan, "iep_k", 0) > 0, for_enumeration
            )
            memo = profile._decisions.get(memo_key)
            if memo is not None:
                choice, seconds, distance = memo
                backend = self._materialise(
                    choice, ctx, for_enumeration=for_enumeration
                )
                if backend is not None:
                    return backend, AutotuneReport(
                        chosen=backend.name,
                        options=choice.options,
                        source="profile" if distance == 0 else "profile-nearest",
                        predicted_seconds=seconds,
                        bucket_distance=distance,
                    )
            found = profile.lookup(psig, gsig)
            if found is not None:
                entry, distance = found
                allowed = {
                    info.name
                    for info in candidate_backends(ctx, for_enumeration=for_enumeration)
                }
                for choice, seconds in entry.ranked():
                    if choice.backend not in allowed:
                        continue
                    backend = self._materialise(
                        choice, ctx, for_enumeration=for_enumeration
                    )
                    if backend is not None:
                        profile._decisions[memo_key] = (choice, seconds, distance)
                        return backend, AutotuneReport(
                            chosen=backend.name,
                            options=choice.options,
                            source="profile" if distance == 0 else "profile-nearest",
                            predicted_seconds=seconds,
                            bucket_distance=distance,
                        )
        fallback = select_backend(ctx, None, for_enumeration=for_enumeration)
        return fallback, AutotuneReport(chosen=fallback.name, source="static")

    # -- execution ------------------------------------------------------
    def count(self, ctx) -> int:
        return self.count_with_report(ctx)[0]

    def count_with_report(self, ctx) -> tuple[int, AutotuneReport]:
        self._require(ctx)
        backend, report = self.decide(ctx)
        runner = getattr(backend, "count_with_report", None)
        if runner is not None:
            n, inner = runner(ctx)
            report = dataclasses.replace(report, inner_report=inner)
        else:
            n = backend.count(ctx)
        return n, report

    def enumerate_embeddings(self, ctx, limit=None):
        self._require(ctx)
        backend, _ = self.decide(ctx, for_enumeration=True)
        return backend.enumerate_embeddings(ctx, limit=limit)


def is_auto_spec(spec: Any) -> bool:
    """Whether a ``backend=`` preference names the auto pseudo-backend."""
    return spec == "auto" or isinstance(spec, AutoBackend)


def profile_for_spec(spec: Any) -> CalibrationProfile | None:
    """The profile an ``auto`` spec would consult (``None`` otherwise)."""
    if isinstance(spec, AutoBackend):
        return spec.active_profile()
    if spec == "auto":
        return get_active_profile()
    return None


def plan_choice_for(
    query: Any, graph: Any, profile: CalibrationProfile | None = None
) -> ProfileChoice | None:
    """The profile's winning choice for a query on a graph, if any.

    Used by :class:`~repro.core.session.MatchSession` *before planning*
    to fold the measured plan-level knob (``use_iep``) into an
    ``auto``-preferenced query, so the plan the winner was measured on
    is the plan it gets.  ``profile`` short-circuits the resolution when
    the caller already holds it.
    """
    if profile is None:
        profile = profile_for_spec(query.backend)
    if profile is None:
        return None
    found = profile.lookup(query_signature(query), graph_signature(graph))
    if found is None:
        return None
    entry, _ = found
    for choice, _seconds in entry.ranked():
        if capabilities_of(choice.backend) is not None:
            return choice
    return None


# ---------------------------------------------------------------------------
# the calibration sweep
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CalibrationWorkload:
    """One (graph, query) cell of the sweep."""

    name: str
    graph: Any
    query: Any


@dataclass(frozen=True)
class WorkloadMeasurement:
    """Every choice's best-of-``repeats`` seconds on one workload."""

    workload: str
    pattern_sig: tuple
    graph_sig: tuple
    count: int
    seconds: tuple[tuple[ProfileChoice, float], ...]

    @property
    def best(self) -> tuple[ProfileChoice, float]:
        return min(self.seconds, key=lambda item: item[1])


def default_choice_grid(*, heavy: bool = False) -> list[ProfileChoice]:
    """The swept backend x knob grid.

    The light grid covers the in-process backends and the knobs that
    move single-query latency (IEP on/off, auxiliary pruning on/off);
    ``heavy=True`` adds the process-pool and distributed configurations
    (worth sweeping on large graphs, pure overhead on small ones).
    """
    grid = [
        ProfileChoice.make("interpreter", use_iep=True),
        ProfileChoice.make("interpreter", use_iep=False),
        ProfileChoice.make("preslice", use_iep=True),
        ProfileChoice.make("compiled", use_iep=True),
        ProfileChoice.make("compiled", use_iep=False),
        ProfileChoice.make("vectorised", {"aux": "auto"}, use_iep=True),
        ProfileChoice.make("vectorised", {"aux": "auto"}, use_iep=False),
        ProfileChoice.make("vectorised", {"aux": False}, use_iep=False),
    ]
    if heavy:
        grid += [
            ProfileChoice.make("parallel", {"n_workers": 2}, use_iep=True),
            ProfileChoice.make(
                "distributed", {"simulate": False, "inner": "vectorised"},
                use_iep=False,
            ),
            ProfileChoice.make(
                "distributed", {"simulate": False, "inner": "compiled"},
                use_iep=True,
            ),
        ]
    return grid


def choice_applicable(choice: ProfileChoice, query: Any) -> bool:
    """Cheap pre-filter: can a choice even be *asked* for this query?

    Declared capabilities only (the definitive check is whether the
    session reports the choice's backend actually executed — a silent
    interpreter fallback must not be recorded under the choice's name).
    """
    if query.semantics == "induced" and choice.use_iep:
        return False  # induced + IEP is rejected at query construction
    caps = capabilities_of(choice.backend)
    if caps is None:
        return False
    mode = fold_mode(query.mode, query.semantics)
    if not caps.supports_mode(mode):
        return False
    if choice.use_iep and not caps.iep:
        return False
    return True


def measure_workload(
    workload: CalibrationWorkload,
    choices: Iterable[ProfileChoice],
    *,
    repeats: int = 3,
) -> WorkloadMeasurement:
    """Best-of-``repeats`` execution seconds per applicable choice.

    Planning cost is excluded by construction: timings come from
    :attr:`MatchResult.seconds_execute` on a warm session plan cache.
    Every choice's count is cross-checked — a disagreement raises
    :class:`CalibrationError` rather than persisting a profile that
    prefers a wrong-answer backend.
    """
    from repro.core.session import MatchSession

    session = MatchSession(workload.graph)
    query = workload.query
    counts: dict[ProfileChoice, int] = {}
    seconds: list[tuple[ProfileChoice, float]] = []
    for choice in choices:
        if not choice_applicable(choice, query):
            continue
        try:
            backend = get_backend(choice.backend, **choice.options_dict())
        except (TypeError, ValueError):
            continue
        q = query
        if choice.use_iep is not None:
            q = dataclasses.replace(query, use_iep=choice.use_iep)
        best = math.inf
        executed = None
        for _ in range(max(1, repeats)):
            result = session.count(q, backend=backend)
            executed = result.backend
            best = min(best, result.seconds_execute)
        if executed != choice.backend:
            # the registry fell back (e.g. distributed on a 1-loop
            # plan): not a measurement of this choice.
            continue
        counts[choice] = int(result)
        seconds.append((choice, best))
    if not seconds:
        raise CalibrationError(
            f"no swept choice could execute workload {workload.name!r}"
        )
    if len(set(counts.values())) > 1:
        raise CalibrationError(
            f"swept backends disagree on workload {workload.name!r}: "
            + ", ".join(f"{c.describe()}={n}" for c, n in counts.items())
        )
    return WorkloadMeasurement(
        workload=workload.name,
        pattern_sig=query_signature(query),
        graph_sig=graph_signature(workload.graph),
        count=next(iter(counts.values())),
        seconds=tuple(seconds),
    )


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values) / len(values))


def build_profile(
    measurements: Iterable[WorkloadMeasurement],
    *,
    created: str = "",
    host: str = "",
) -> CalibrationProfile:
    """Aggregate sweep measurements into the bucketed cost model."""
    per_bucket: dict[tuple, dict[ProfileChoice, list[float]]] = {}
    n_workloads = 0
    for m in measurements:
        n_workloads += 1
        bucket = per_bucket.setdefault((m.pattern_sig, m.graph_sig), {})
        for choice, secs in m.seconds:
            bucket.setdefault(choice, []).append(secs)
    entries = {
        key: BucketEntry(
            pattern_sig=key[0],
            graph_sig=key[1],
            timings=tuple(
                (choice, _geomean(samples)) for choice, samples in bucket.items()
            ),
        )
        for key, bucket in per_bucket.items()
    }
    return CalibrationProfile(
        entries=entries,
        backends=tuple(sorted(backend_names())),
        created=created,
        host=host,
        n_workloads=n_workloads,
    )


def run_calibration(
    workloads: Iterable[CalibrationWorkload],
    choices: Iterable[ProfileChoice] | None = None,
    *,
    repeats: int = 3,
    created: str = "",
    host: str = "",
) -> tuple[CalibrationProfile, list[WorkloadMeasurement]]:
    """Sweep -> measurements -> profile (the whole harness in one call)."""
    grid = list(choices) if choices is not None else default_choice_grid()
    measurements = [
        measure_workload(w, grid, repeats=repeats) for w in workloads
    ]
    profile = build_profile(measurements, created=created, host=host)
    return profile, measurements


__all__ = [
    "PROFILE_VERSION",
    "PROFILE_ENV",
    "ProfileWarning",
    "CalibrationError",
    "pattern_signature",
    "query_signature",
    "context_signature",
    "graph_signature",
    "signature_distance",
    "ProfileChoice",
    "BucketEntry",
    "CalibrationProfile",
    "load_profile",
    "set_active_profile",
    "get_active_profile",
    "AutotuneReport",
    "AutoBackend",
    "is_auto_spec",
    "plan_choice_for",
    "CalibrationWorkload",
    "WorkloadMeasurement",
    "default_choice_grid",
    "choice_applicable",
    "measure_workload",
    "build_profile",
    "run_calibration",
]

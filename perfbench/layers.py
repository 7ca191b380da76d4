"""Per-layer clocks and injected slowdowns, installed at runtime.

Both rebind public names of the ``repro`` package for the duration of a
``with`` block and restore them afterwards; nothing under ``src/``
changes.  A function imported by name into other modules
(``from repro.core.codegen import compile_plan_function``) is rebound in
every loaded ``repro`` module that holds it, so a call through any import
path is seen.  Methods are rebound on their class.

Which end-to-end metric each layer metric should move, and on which
workload, is tabulated in ``perfbench/README.md``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: (module, class or None, attribute, seconds metric, extra counts).
#: ``extra(args, result)`` returns further ``{metric: increment}`` pairs.
#: The four plan stages are restrictions, schedule, perf_model (which
#: includes configuration enumeration) and codegen; the labeled and
#: directed planners nest their own stage calls.
_HOOKS: tuple[tuple[str, str | None, str, str | None, Callable | None], ...] = (
    ("repro.graph.stats", "GraphStats", "of", "graph.stats_s", None),
    ("repro.graph.dynamic", "DynamicGraph", "snapshot", "graph.snapshot_s", None),
    (
        "repro.core.restrictions",
        None,
        "generate_restriction_sets",
        "core.restrictions.s",
        lambda args, r: {"core.restrictions.sets": len(r)},
    ),
    (
        "repro.core.labeled",
        None,
        "labeled_restriction_sets",
        "core.restrictions.s",
        lambda args, r: {"core.restrictions.sets": len(r)},
    ),
    (
        "repro.core.directed",
        None,
        "generate_directed_restriction_sets",
        "core.restrictions.s",
        lambda args, r: {"core.restrictions.sets": len(r)},
    ),
    (
        "repro.core.schedule",
        None,
        "generate_schedules",
        "core.schedule.s",
        lambda args, r: {"core.schedule.schedules": len(r)},
    ),
    ("repro.core.config", None, "enumerate_configurations", "core.perf_model.s", None),
    (
        "repro.core.perf_model",
        "PerformanceModel",
        "rank",
        "core.perf_model.s",
        lambda args, r: {"core.perf_model.configs": len(args[1])},
    ),
    ("repro.core.codegen", None, "compile_plan_function", "core.codegen.s", None),
    ("repro.core.codegen", None, "compile_induced_function", "core.codegen.s", None),
    ("repro.core.codegen", None, "compile_labeled_function", "core.codegen.s", None),
    ("repro.core.codegen", None, "compile_directed_function", "core.codegen.s", None),
    ("repro.core.labeled", "LabeledMatcher", "plan", "core.labeled.plan_s", None),
    ("repro.core.directed", "DirectedMatcher", "plan", "core.directed.plan_s", None),
    ("repro.core.reduction", None, "reduce_directed_batch", "core.reduction.s", None),
    (
        "repro.core.session",
        "MatchSession",
        "count",
        None,
        lambda args, r: {
            "core.session.plan_s": r.seconds_plan,
            "core.session.execute_s": r.seconds_execute,
            f"core.backend.{r.backend}.queries": 1,
        },
    ),
    (
        "repro.streaming.session",
        "StreamSession",
        "apply",
        "streaming.apply_s",
        lambda args, r: {"streaming.updates": r.n_updates},
    ),
)

#: execution backends whose ``count`` is clocked as ``core.backend.<name>.s``.
BACKENDS = ("compiled", "interpreter", "vectorised")


def _owner(module: str, cls: str | None) -> Any:
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


class _Patcher:
    """Rebinds names and remembers how to put them back."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new: Any = classmethod(wrap(raw.__func__))
            else:
                new = wrap(raw)
            self._set(owner, attr, new)
            return
        original = getattr(owner, attr)
        new = wrap(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "repro":
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, new)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class LayerClock:
    """Seconds and counts per layer metric, shared by every thread."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, metric: str, value: float) -> None:
        with self._lock:
            self.values[metric] += value

    def _active(self) -> set[str]:
        active = getattr(self._local, "active", None)
        if active is None:
            active = self._local.active = set()
        return active

    def timed(self, metric: str | None, extra: Callable | None) -> Callable[[Callable], Callable]:
        """A wrapper factory: time calls into ``metric`` (outermost call
        only, so a stage that recurses through its own public name is not
        counted twice) and add ``extra(args, result)`` counts."""

        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def clocked(*args, **kwargs):
                active = self._active()
                if metric is None or metric in active:
                    result = fn(*args, **kwargs)
                else:
                    active.add(metric)
                    start = time.perf_counter()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        active.discard(metric)
                        self.add(metric, time.perf_counter() - start)
                if extra is not None:
                    for name, value in extra(args, result).items():
                        self.add(name, value)
                return result

            return clocked

        return wrap


@contextmanager
def clocked_layers(clock: LayerClock) -> Iterator[LayerClock]:
    """Install ``clock`` on every layer hook for the block's duration."""
    from repro.core.backend import available_backends

    patcher = _Patcher()
    try:
        for module, cls, attr, metric, extra in _HOOKS:
            patcher.replace(_owner(module, cls), attr, clock.timed(metric, extra))
        registered = available_backends()
        for name in BACKENDS:
            patcher.replace(
                registered[name].cls, "count", clock.timed(f"core.backend.{name}.s", None)
            )
        yield clock
    finally:
        patcher.restore()


def _spin(seconds: float) -> None:
    """Busy-wait: like real compute, it holds the interpreter lock."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@contextmanager
def slowed(module: str, cls: str | None, attr: str, factor: float) -> Iterator[None]:
    """Make every call of a public name take ``1 + factor`` times as long."""

    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def slow(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            _spin((time.perf_counter() - start) * factor)
            return result

        return slow

    patcher = _Patcher()
    try:
        patcher.replace(_owner(module, cls), attr, wrap)
        yield
    finally:
        patcher.restore()

"""StreamSession: exact pattern counts maintained under edge churn.

The streaming counterpart of :class:`repro.core.session.MatchSession`:
bind a :class:`~repro.graph.dynamic.DynamicGraph` once, ``watch()`` any
number of plain edge-semantics queries, then ``apply()`` batches of
edge insertions/deletions — every watched count is maintained exactly,
by anchored delta enumeration (:mod:`repro.streaming.delta_plan`),
never by recounting the graph.

Semantics (the invariants the property tests pin):

* updates in a batch take effect **sequentially**; an insert's delta is
  counted in the post-insert graph, a delete's in the pre-delete graph,
  so after any batch every watched count equals a full recount on
  ``snapshot()``;
* a batch is **atomic on rejection**: the whole batch is validated
  against a simulated edge overlay before the first mutation, so a
  self-loop, duplicate insert or missing delete raises with the graph
  and every count untouched;
* all watches share one pass over the batch, so the marginal cost of a
  second watched query is just its anchored enumeration, not a second
  sweep.

Initial counts (and the ``expected_counts()`` cross-check used by tests
and the benchmark) run through the ordinary
:func:`~repro.core.session.get_session` registry on memoised snapshots,
so they hit the same plan cache as any other matching work on the
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.core.query import MatchQuery, as_query
from repro.core.session import get_session
from repro.graph.csr import Graph
from repro.graph.dynamic import DynamicGraph
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.streaming.delta_plan import DeltaPlan, delta_plan_for
from repro.streaming.executor import DeltaExecutor
from repro.utils.tables import Table
from repro.utils.timing import Timer

#: spellings accepted for the two update operations.
_INSERT_OPS = {"+", "add", "insert", "i"}
_DELETE_OPS = {"-", "remove", "delete", "d"}


@dataclass(frozen=True)
class EdgeUpdate:
    """One edge mutation: ``op`` is ``"+"`` (insert) or ``"-"`` (delete)."""

    op: str
    u: int
    v: int

    def __post_init__(self):
        if self.op not in ("+", "-"):
            raise ValueError(f"unknown update op {self.op!r}: expected '+' or '-'")

    @property
    def is_insert(self) -> bool:
        return self.op == "+"

    @classmethod
    def coerce(cls, item: "EdgeUpdate | tuple") -> "EdgeUpdate":
        """Accept ``EdgeUpdate`` or ``(op, u, v)`` tuples with op aliases."""
        if isinstance(item, EdgeUpdate):
            return item
        try:
            op, u, v = item
        except (TypeError, ValueError):
            raise TypeError(
                f"updates must be EdgeUpdate or (op, u, v) tuples, got {item!r}"
            ) from None
        op = str(op).lower()
        if op in _INSERT_OPS:
            op = "+"
        elif op in _DELETE_OPS:
            op = "-"
        else:
            raise ValueError(
                f"unknown update op {op!r}: expected one of "
                f"{sorted(_INSERT_OPS | _DELETE_OPS)}"
            )
        return cls(op, int(u), int(v))


def read_churn_file(path: str | Path) -> list[EdgeUpdate]:
    """Parse an edge-churn file: one ``+ u v`` / ``- u v`` per line.

    Blank lines and ``#`` comments are skipped.  This is the format the
    CLI ``stream`` command replays.
    """
    updates: list[EdgeUpdate] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(
                f"{path}:{lineno}: expected 'OP U V', got {raw.strip()!r}"
            )
        try:
            updates.append(EdgeUpdate.coerce(tuple(parts)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return updates


class WatchHandle:
    """One maintained query: its delta plan and the running exact count."""

    def __init__(self, name: str, query: MatchQuery, plan: DeltaPlan, count: int):
        self.name = name
        self.query = query
        self.plan = plan
        self.count = count
        #: lifetime totals, for introspection and the CLI summary.
        self.updates_seen = 0
        self.seconds_delta = 0.0

    @property
    def pattern(self):
        return self.query.pattern

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WatchHandle({self.name!r}, count={self.count})"


@dataclass(frozen=True)
class WatchReport:
    """One watch's outcome for one batch."""

    name: str
    count_before: int
    count: int
    delta: int
    seconds: float


@dataclass(frozen=True)
class StreamReport:
    """What one ``apply()`` did: per-watch deltas plus batch accounting."""

    n_updates: int
    n_inserts: int
    n_deletes: int
    seconds: float
    watches: tuple[WatchReport, ...]

    @property
    def counts(self) -> dict[str, int]:
        return {w.name: w.count for w in self.watches}

    @property
    def deltas(self) -> dict[str, int]:
        return {w.name: w.delta for w in self.watches}

    def describe(self) -> str:
        table = Table(
            ["watch", "count", "delta", "ms"],
            title=(
                f"{self.n_updates} updates (+{self.n_inserts}/-{self.n_deletes}, "
                f"{self.seconds * 1e3:.1f} ms)"
            ),
        )
        for w in self.watches:
            table.add_row([w.name, w.count, f"{w.delta:+d}", f"{w.seconds * 1e3:.2f}"])
        return table.render()


class StreamSession:
    """A mutable data graph plus incrementally-maintained pattern counts.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.dynamic.DynamicGraph` (adopted — the
        session mutates it) or an immutable :class:`Graph`, which is
        thawed into a private dynamic copy.
    allow_vertex_growth:
        Inserts naming vertices beyond the current range grow the graph
        automatically (isolated vertices carry no embeddings of the
        connected ≥2-vertex patterns a watch accepts, so counts are
        unaffected).  Disable to make out-of-range ids an error.
    max_vertex_growth:
        Cap on how many vertices one batch may add implicitly.  Sparse
        external id spaces fill the gap with isolated vertices, so a
        single typo'd id (``+ 0 999999999`` in a churn file) would
        otherwise allocate a billion adjacency sets; past the cap the
        batch is rejected atomically instead.  Pre-size the graph with
        ``add_vertex`` for genuinely huge id spaces.

    >>> stream = StreamSession(DynamicGraph.from_graph(g))
    >>> h = stream.watch(get_pattern("triangle"))
    >>> stream.apply([("+", 0, 5), ("-", 2, 3)]).counts[h.name]
    """

    def __init__(
        self,
        graph: DynamicGraph | Graph,
        *,
        allow_vertex_growth: bool = True,
        max_vertex_growth: int = 4096,
    ):
        if isinstance(graph, Graph):
            graph = DynamicGraph.from_graph(graph)
        elif not isinstance(graph, DynamicGraph):
            raise TypeError(
                f"StreamSession needs a DynamicGraph or Graph, got "
                f"{type(graph).__name__}"
            )
        if max_vertex_growth < 0:
            raise ValueError("max_vertex_growth must be >= 0")
        self.graph = graph
        self.allow_vertex_growth = allow_vertex_growth
        self.max_vertex_growth = max_vertex_growth
        self._executor = DeltaExecutor(graph)
        self._watches: dict[str, WatchHandle] = {}
        self._n_batches = 0
        self._n_updates = 0

    # ------------------------------------------------------------------
    # watch management
    # ------------------------------------------------------------------
    def watch(self, query: MatchQuery | Any, *, name: str | None = None) -> WatchHandle:
        """Maintain a query's count; returns the handle holding it.

        Only plain-mode, edge-semantics queries are maintainable: under
        edge semantics an edge update changes exactly the embeddings
        through that edge, which is what the delta plans count.  The
        initial count is a full count on the (memoised) snapshot via the
        ordinary session layer.
        """
        query = as_query(query)
        if query.mode != "plain" or query.semantics != "edge":
            raise ValueError(
                "streaming maintenance covers plain edge-semantics queries; "
                f"got mode={query.mode!r} semantics={query.semantics!r} "
                "(an inserted edge can destroy induced/labeled/directed "
                "matches outside the delta plans' reach)"
            )
        plan = delta_plan_for(query.pattern)
        if name is None:
            base = query.pattern.name or f"pattern-{query.pattern.n_vertices}v"
            name = base
            suffix = 2
            while name in self._watches:
                name = f"{base}-{suffix}"
                suffix += 1
        elif name in self._watches:
            raise ValueError(f"watch name {name!r} already in use")
        initial = int(get_session(self.graph.snapshot()).count(query))
        handle = WatchHandle(name, query, plan, initial)
        self._watches[name] = handle
        return handle

    def unwatch(self, handle: WatchHandle | str) -> None:
        name = handle if isinstance(handle, str) else handle.name
        if name not in self._watches:
            raise KeyError(f"no watch named {name!r}")
        del self._watches[name]

    @property
    def watches(self) -> tuple[WatchHandle, ...]:
        return tuple(self._watches.values())

    def counts(self) -> dict[str, int]:
        """The maintained count of every watch, by name."""
        return {name: h.count for name, h in self._watches.items()}

    def expected_counts(self) -> dict[str, int]:
        """Full recounts on the current snapshot (the testing oracle).

        This is exactly what the maintained counts must equal after any
        batch; the property tests assert it after every ``apply()``.
        """
        session = get_session(self.graph.snapshot())
        return {
            name: int(session.count(h.query)) for name, h in self._watches.items()
        }

    # ------------------------------------------------------------------
    # batch application
    # ------------------------------------------------------------------
    def _validate_batch(self, updates: list[EdgeUpdate]) -> int:
        """Pre-validate the whole batch; returns the vertex count needed.

        Simulates edge presence with an overlay on the live graph so the
        batch is checked *as a sequence* (insert-then-delete of the same
        edge is fine; delete-then-delete is not) without mutating
        anything — rejection leaves the session exactly as it was.
        """
        n_vertices = self.graph.n_vertices
        overlay: dict[tuple[int, int], bool] = {}

        def present(u: int, v: int) -> bool:
            key = (u, v) if u < v else (v, u)
            if key in overlay:
                return overlay[key]
            if u >= n_vertices or v >= n_vertices:
                return False
            return self.graph.has_edge(u, v)

        needed = self.graph.n_vertices
        for up in updates:
            u, v = up.u, up.v
            if u < 0 or v < 0:
                raise ValueError(f"negative vertex id in {up}")
            if u == v:
                raise ValueError(f"self-loop ({u},{u}) not allowed")
            key = (u, v) if u < v else (v, u)
            if up.is_insert:
                if present(u, v):
                    raise KeyError(f"edge ({u},{v}) already present")
                if max(u, v) >= self.graph.n_vertices:
                    if not self.allow_vertex_growth:
                        raise IndexError(
                            f"vertex {max(u, v)} out of range and vertex "
                            "growth is disabled"
                        )
                    needed = max(needed, max(u, v) + 1)
                    growth = needed - self.graph.n_vertices
                    if growth > self.max_vertex_growth:
                        raise ValueError(
                            f"vertex {max(u, v)} would grow the graph by "
                            f"{growth} vertices, over the "
                            f"max_vertex_growth cap of "
                            f"{self.max_vertex_growth} — a typo'd id?  "
                            "Pre-size the graph with add_vertex() if the "
                            "id space really is that sparse"
                        )
                overlay[key] = True
            else:
                if not present(u, v):
                    raise KeyError(f"edge ({u},{v}) not present")
                overlay[key] = False
        return needed

    def apply(self, updates: Iterable["EdgeUpdate | tuple"]) -> StreamReport:
        """Apply a batch of edge updates, maintaining every watched count."""
        batch = [EdgeUpdate.coerce(item) for item in updates]
        needed = self._validate_batch(batch)
        while self.graph.n_vertices < needed:
            self.graph.add_vertex()

        watches = list(self._watches.values())
        before = {h.name: h.count for h in watches}
        deltas = {h.name: 0 for h in watches}
        seconds = {h.name: 0.0 for h in watches}
        n_inserts = 0
        with Timer() as t_batch, span("stream.apply", updates=len(batch)):
            for up in batch:
                u, v = up.u, up.v
                if up.is_insert:
                    n_inserts += 1
                    self.graph.add_edge(u, v)
                    sign = 1
                else:
                    sign = -1
                # one pass serves every watch: the executor is shared
                # across queries and updates.
                for h in watches:
                    with Timer() as t, span(
                        "stream.delta",
                        watch=h.name,
                        n_orbits=len(h.plan.anchored),
                    ) as sp:
                        d = self._executor.count_edge(h.plan, u, v)
                        sp.set(delta=sign * d)
                    obs_metrics.STREAM_DELTAS.inc()
                    deltas[h.name] += sign * d
                    seconds[h.name] += t.elapsed
                if not up.is_insert:
                    self.graph.remove_edge(u, v)
        for h in watches:
            h.count = before[h.name] + deltas[h.name]
            h.updates_seen += len(batch)
            h.seconds_delta += seconds[h.name]
        self._n_batches += 1
        self._n_updates += len(batch)
        return StreamReport(
            n_updates=len(batch),
            n_inserts=n_inserts,
            n_deletes=len(batch) - n_inserts,
            seconds=t_batch.elapsed,
            watches=tuple(
                WatchReport(
                    name=h.name,
                    count_before=before[h.name],
                    count=h.count,
                    delta=deltas[h.name],
                    seconds=seconds[h.name],
                )
                for h in watches
            ),
        )

    # ------------------------------------------------------------------
    def snapshot(self, name: str = "") -> Graph:
        """The bound graph's current immutable snapshot (memoised)."""
        return self.graph.snapshot(name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamSession({self.graph!r}, watches={len(self._watches)}, "
            f"batches={self._n_batches}, updates={self._n_updates})"
        )

"""The benchmark's three workloads, driven through the public surfaces.

Every workload answers the same kinds of requests — plain, vertex-induced,
labeled and directed counts — so every end-to-end metric exists on each;
what differs is the input and the surface, and so the layers loaded:

* ``fig8-warm``: the paper's Fig. 8 queries against warm
  :class:`~repro.MatchSession` plan caches (plans built in set-up), so the
  time is execution in ``core.backend``.
* ``plan-cold``: first-seen queries, each in a fresh ``MatchSession`` on a
  tiny graph, so the time is Algorithm 1, schedule enumeration, model
  ranking and code generation.
* ``serve-churn``: two closed-loop clients against a
  :class:`~repro.MatchService` whose dynamic replica takes an edge toggle
  every few requests, so the time is memo misses on fresh snapshots:
  stats, cold plans, execution and stream-watch maintenance.

Inputs come from the run seed.  It permutes the vertex ids of fixed proxy
graphs, and the labels and arc orientations travel with their vertices;
it also draws the request trace and the churned vertex pairs.  Counts are
invariant under the permutation, so they are pinned in ``counts.json``,
while the matching work, which depends on vertex ids through the
symmetry-breaking restrictions, is drawn afresh for every seed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro import (
    DiPattern,
    DynamicGraph,
    MatchQuery,
    MatchRequest,
    MatchService,
    MatchSession,
    get_pattern,
    load_dataset,
)
from repro.graph.datasets import clear_memo
from repro.graph.digraph import digraph_from_edges
from repro.graph.labeled import LabeledGraph, assign_random_labels
from repro.graph.orientation import apply_order
from repro.pattern.directed import get_directed_pattern
from repro.pattern.labeled import LabeledPattern

#: generator seed of every base proxy graph; the run seed permutes it.
BASE_SEED = 2020
#: share of oriented edges that get both arcs, and the label alphabet.
RECIPROCAL = 0.1
N_LABELS = 3

COUNTS_FILE = Path(__file__).with_name("counts.json")


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------
def relabeled(dataset: str, scale: float, rng: np.random.Generator):
    """``(base, graph, perm)``: a proxy and a seeded relabeling of it,
    with ``perm[base id] = new id``.

    Ids ascend with degree and the seed breaks ties.  A uniformly random
    relabeling would also do, but on graphs this small the id the hubs
    land on moves the matching work by ±15%, which would drown the
    regressions the benchmark is there to catch.
    """
    base = load_dataset(dataset, scale=scale, seed=BASE_SEED)
    order = np.lexsort((rng.random(base.n_vertices), base.degrees))
    graph, perm = apply_order(base, order)
    return base, graph, perm


def labeled_graph(dataset: str, scale: float, rng) -> LabeledGraph:
    base, graph, perm = relabeled(dataset, scale, rng)
    labels = assign_random_labels(base, N_LABELS, seed=BASE_SEED).labels
    moved = np.empty_like(labels)
    moved[perm] = labels
    return LabeledGraph(graph, moved)


def oriented_graph(dataset: str, scale: float, rng):
    base, graph, perm = relabeled(dataset, scale, rng)
    coin = np.random.default_rng(BASE_SEED)
    arcs = []
    for u, v in base.edges():
        a, b = int(perm[u]), int(perm[v])
        draw = coin.random()
        if draw < RECIPROCAL:
            arcs += [(a, b), (b, a)]
        elif draw < (1 + RECIPROCAL) / 2:
            arcs.append((a, b))
        else:
            arcs.append((b, a))
    return digraph_from_edges(arcs, n_vertices=graph.n_vertices, name=base.name)


def plain_query(name: str, semantics: str = "edge") -> MatchQuery:
    return MatchQuery(get_pattern(name), semantics=semantics)


def labeled_query(name: str, labels: tuple[int, ...]) -> MatchQuery:
    return MatchQuery(LabeledPattern(get_pattern(name), labels))


def directed_query(name: str) -> MatchQuery:
    if name in C4_ORIENTATIONS:
        return MatchQuery(DiPattern(4, C4_ORIENTATIONS[name], name=name))
    return MatchQuery(get_directed_pattern(name))


#: orientations of one labeled 4-cycle skeleton, so ``count_many`` answers
#: them with one shared-skeleton reduction.
C4_ORIENTATIONS = {
    "c4-cycle": ((0, 1), (1, 2), (2, 3), (3, 0)),
    "c4-fan": ((0, 1), (2, 1), (2, 3), (0, 3)),
    "c4-paths": ((0, 1), (1, 2), (2, 3), (0, 3)),
}


def pinned_counts() -> dict[str, int]:
    return json.loads(COUNTS_FILE.read_text())


#: iterations of the reference loop, and its seconds on the nominal CPU
#: (the unloaded 2-core x86 host the benchmark was sized on).
REFERENCE_LOOPS = 20_000
REFERENCE_SECONDS = 1.3e-3


def cpu_slowdown() -> float:
    """How many times slower than nominal the CPU runs right now.

    Other tenants of a shared host slow the CPU by up to 1.6x for
    stretches of seconds, which moves every timing far more than the
    regressions the benchmark must catch.  A fixed pure-Python loop that
    touches no ``repro`` code is timed (best of three) next to each
    request, and the request's seconds are divided by its slowdown, so
    reported times are seconds on the nominal CPU.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best / REFERENCE_SECONDS


def timed(call):
    """``(result, seconds at nominal CPU speed)`` of one blocking call."""
    slowdown = cpu_slowdown()
    start = time.perf_counter()
    result = call()
    return result, (time.perf_counter() - start) / slowdown


# ---------------------------------------------------------------------------
# per-pass bookkeeping
# ---------------------------------------------------------------------------
class Tally:
    """What one pass answered: per-mode waiting time, per-request
    latencies, answers, failures and (for the traced pass) per-query
    execute seconds."""

    def __init__(self) -> None:
        self.mode_seconds: dict[str, float] = defaultdict(float)
        self.latencies: list[float] = []
        self.answers = 0
        self.embeddings = 0
        self.failures: list[str] = []
        self.execute_seconds: dict[str, float] = {}
        #: answers from the shared-skeleton reduction, which bypasses
        #: ``MatchSession.count`` and so the per-backend query clock.
        self.reduced = 0
        #: nominal-speed seconds spent answering (the qps denominator).
        self.busy = 0.0
        self.wall = 0.0

    def answer(self, mode: str, seconds: float, results: list[tuple[str, int, bool]]) -> None:
        """One request of ``mode`` waited ``seconds`` for ``results``:
        ``(query id, count, correct)`` per answer it returned."""
        self.mode_seconds[mode] += seconds
        self.latencies.append(seconds)
        self.busy += seconds
        for qid, count, ok in results:
            self.answers += 1
            self.embeddings += count
            if not ok:
                self.failures.append(f"{mode} {qid}: wrong answer {count}")


class Workload:
    """Set-up, one measured pass, and the after-the-fact checks."""

    name = ""
    #: single-query requests per mode: pattern names (labeled: with labels)
    PLAIN: tuple = ()
    INDUCED: tuple = ()
    LABELED: tuple = ()
    DIRECTED: tuple = ()
    #: (dataset, scale) of the proxy each mode's graph is relabeled from
    GRAPHS: dict[str, tuple[str, float]] = {}

    def __init__(self) -> None:
        self.build_times: list[float] = []

    @classmethod
    def queries(cls) -> list[tuple[str, str, MatchQuery]]:
        """``(mode, query id, query)`` for every single-query request."""
        return (
            [("plain", f"plain.{n}", plain_query(n)) for n in cls.PLAIN]
            + [("induced", f"induced.{n}", plain_query(n, "induced")) for n in cls.INDUCED]
            + [("labeled", f"labeled.{n}", labeled_query(n, lab)) for n, lab in cls.LABELED]
            + [("directed", f"directed.{n}", directed_query(n)) for n in cls.DIRECTED]
        )

    @classmethod
    def inputs(cls, seed: int) -> dict:
        """The seeded graph each mode's requests run on."""
        rng = np.random.default_rng(seed)
        _, plain, _ = relabeled(*cls.GRAPHS["plain"], rng)
        return {
            "plain": plain,
            "induced": plain,
            "labeled": labeled_graph(*cls.GRAPHS["labeled"], rng),
            "directed": oriented_graph(*cls.GRAPHS["directed"], rng),
        }

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, tally: Tally) -> None:
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Checks made outside the timed window; returns failures."""
        return []

    def cli_args(self, edge_list: Path) -> list[str]:
        """``python -m repro`` arguments mirroring this workload; the
        command reads the workload's plain graph from ``edge_list``."""
        raise NotImplementedError

    def cli_check(self, stdout: str) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _timed_build(self, build):
        clear_memo()  # every set-up builds its graphs from scratch
        start = time.perf_counter()
        graphs = build()
        self.build_times.append(time.perf_counter() - start)
        return graphs


def _count_line(stdout: str) -> int | None:
    for line in stdout.splitlines():
        if line.startswith("count:"):
            return int(line.split()[1])
    return None


# ---------------------------------------------------------------------------
# fig8-warm
# ---------------------------------------------------------------------------
class Fig8Warm(Workload):
    """Fig. 8's queries on warm plan caches: the execution engines."""

    name = "fig8-warm"
    PLAIN = ("P1", "P2", "P3", "P4")
    INDUCED = ("rectangle", "house", "pentagon", "hourglass")
    LABELED = (
        ("house", (0, 1, 0, 1, 2)),
        ("P1", (0, 0, 1, 1, 2)),
        ("P3", (0, 1, 2, 0, 1, 2)),
    )
    DIRECTED = ("ffl", "bifan", "dcycle-3", "dpath-4")
    BATCH = tuple(C4_ORIENTATIONS)
    GRAPHS = {
        "plain": ("wiki-vote", 0.05),
        "labeled": ("wiki-vote", 0.2),
        "directed": ("wiki-vote", 0.3),
    }

    def setup(self, seed: int) -> None:
        graphs = self._timed_build(lambda: self.inputs(seed))
        self.graph = graphs["plain"]
        sessions = {
            "plain": MatchSession(graphs["plain"]),
            "labeled": MatchSession(graphs["labeled"]),
            "directed": MatchSession(graphs["directed"]),
        }
        sessions["induced"] = sessions["plain"]
        expected = pinned_counts()
        self.items = []
        for mode, qid, query in self.queries():
            sessions[mode].plan_for(query)
            self.items.append((mode, qid, sessions[mode], query, expected[f"{self.name}/{qid}"]))
        self.directed = sessions["directed"]
        self.batch = [directed_query(n) for n in self.BATCH]
        self.batch_expected = [expected[f"{self.name}/batch.{n}"] for n in self.BATCH]
        # plans the shared skeleton core of the reduction
        self.directed.count_many(self.batch)

    def run_pass(self, tally: Tally) -> None:
        for mode, qid, session, query, expected in self.items:
            result, seconds = timed(lambda: session.count(query))
            ok = result.cache_hit and result.count == expected
            tally.answer(mode, seconds, [(qid, result.count, ok)])
            tally.execute_seconds[qid] = result.seconds_execute
        results, seconds = timed(lambda: self.directed.count_many(self.batch))
        tally.answer(
            "directed",
            seconds,
            [
                (f"batch.{n}", r.count, r.backend == "reduction" and r.count == want)
                for n, r, want in zip(self.BATCH, results, self.batch_expected)
            ],
        )
        tally.execute_seconds["directed.batch"] = seconds
        tally.reduced += sum(r.backend == "reduction" for r in results)

    def cli_args(self, edge_list: Path) -> list[str]:
        return ["count", "--pattern", "P1", "--edge-list", str(edge_list)]

    def cli_check(self, stdout: str) -> bool:
        return _count_line(stdout) == pinned_counts()[f"{self.name}/plain.P1"]


# ---------------------------------------------------------------------------
# plan-cold
# ---------------------------------------------------------------------------
class PlanCold(Workload):
    """First-seen queries on a tiny graph: the preprocessing pipeline."""

    name = "plan-cold"
    PLAIN = ("clique-6", "clique-5", "star-5", "pentagon", "P4")
    INDUCED = ("pentagon", "rectangle")
    LABELED = (("clique-5", (0, 0, 0, 1, 1)), ("house", (0, 1, 0, 1, 2)))
    DIRECTED = ("outstar-5", "bifan", "dcycle-4", "ffl")
    GRAPHS = dict.fromkeys(("plain", "labeled", "directed"), ("patents", 0.01))

    def setup(self, seed: int) -> None:
        graphs = self._timed_build(lambda: self.inputs(seed))
        self.graph = graphs["plain"]
        expected = pinned_counts()
        self.items = [
            (mode, qid, graphs[mode], query, expected[f"{self.name}/{qid}"])
            for mode, qid, query in self.queries()
        ]

    def run_pass(self, tally: Tally) -> None:
        for mode, qid, graph, query, expected in self.items:
            result, seconds = timed(lambda: MatchSession(graph).count(query))
            ok = not result.cache_hit and result.count == expected
            tally.answer(mode, seconds, [(qid, result.count, ok)])
            tally.execute_seconds[qid] = result.seconds_execute

    def cli_args(self, edge_list: Path) -> list[str]:
        return ["count", "--pattern", "pentagon", "--edge-list", str(edge_list)]

    def cli_check(self, stdout: str) -> bool:
        return _count_line(stdout) == pinned_counts()[f"{self.name}/plain.pentagon"]


# ---------------------------------------------------------------------------
# serve-churn
# ---------------------------------------------------------------------------
class ServeChurn(Workload):
    """Served reads under edge churn: serving, streaming, cold misses.

    One closed-loop client.  With two, whether two misses overlap and
    share the interpreter lock decides each latency, which moved every
    metric of this workload by 15-25% between runs.
    """

    name = "serve-churn"
    #: plain reads, hottest first
    PATTERNS = ("triangle", "rectangle", "house")
    WATCHES = ("triangle", "rectangle", "house")
    INDUCED = ("triangle", "rectangle")
    LABELED = (("P3", (0, 1, 2, 0, 1, 2)), ("house", (0, 1, 0, 1, 2)))
    DIRECTED = ("bifan", "dcycle-4")
    #: requests per measured segment, and the enumerate limit
    #: (``synthetic_trace``'s default)
    SEGMENT = 96
    ENUMERATE_LIMIT = 20
    #: one edge toggle per this many requests.  It keeps the memo hit
    #: ratio near a quarter, so both p50 and p90 fall on misses rather
    #: than on the hit/miss boundary, where they would jump between runs.
    CHURN_EVERY = 6
    CHURN_POOL = 8
    WORKERS = 2
    #: the churned replica, and the static ones
    GRAPHS = {
        "plain": ("patents", 0.01),
        "labeled": ("wiki-vote", 0.1),
        "directed": ("wiki-vote", 0.1),
    }

    def __init__(self) -> None:
        super().__init__()
        self.service = None

    def setup(self, seed: int) -> None:
        def build():
            graphs = self.inputs(seed)
            graphs["dynamic"] = DynamicGraph.from_graph(graphs["plain"])
            return graphs

        graphs = self._timed_build(build)
        self.seed = seed
        self.graph = graphs["plain"]
        self.dynamic = graphs["dynamic"]
        self.service = MatchService(n_workers=self.WORKERS)
        self.service.add_graph("default", self.dynamic)
        self.service.add_graph("labeled", graphs["labeled"])
        self.service.add_graph("directed", graphs["directed"])
        self.watches = [self.service.watch(get_pattern(n)) for n in self.WATCHES]
        rng = np.random.default_rng([seed, 1])
        pool: list[tuple[int, int]] = []
        n = self.graph.n_vertices
        while len(pool) < self.CHURN_POOL:
            u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
            if not self.graph.has_edge(u, v) and (u, v) not in pool:
                pool.append((u, v))
        self.pool = pool
        # 16 toggles of 8 pairs per segment: every segment starts from the
        # base graph and replays the same requests
        self.trace = self._requests(np.random.default_rng([seed, 2]))
        self.requests = 0
        self.churns: list[float] = []
        self.served: list[tuple[MatchRequest, object]] = []

    def _requests(self, rng: np.random.Generator) -> list[tuple[str, MatchRequest, bool]]:
        """One segment: ``(mode, request, memoise)`` in submission order.

        The segment is one block of requests per graph version: five plain
        reads in Zipf-like proportions (three triangle, one rectangle, one
        house; every other block turns a triangle count into an
        enumerate) and one induced read on the same replica or a labeled
        or directed read on a static replica, in turn.  The seed orders
        the blocks and the requests within each.  Fixed blocks keep the
        number of memo misses per version, and with it the segment time,
        the same for every seed; independent Zipf draws moved it by a
        quarter.  Static replicas never change version, so their reads
        skip the memo and measure warm execution.
        """
        triangle, rectangle, house = (get_pattern(n) for n in self.PATTERNS)
        blocks = []
        for b in range(self.SEGMENT // self.CHURN_EVERY):
            third = (
                MatchRequest("enumerate", triangle, limit=self.ENUMERATE_LIMIT)
                if b % 2 == 0
                else MatchRequest("count", triangle)
            )
            reads = [MatchRequest("count", triangle)] * 2 + [third]
            reads += [MatchRequest("count", rectangle), MatchRequest("count", house)]
            block = [("plain", request, True) for request in reads]
            turn = b // 3
            if b % 3 == 0:
                query = plain_query(self.INDUCED[turn % 2], "induced")
                block.append(("induced", MatchRequest("count", query), True))
            elif b % 3 == 1:
                query = labeled_query(*self.LABELED[turn % 2])
                block.append(("labeled", MatchRequest("count", query, graph="labeled"), False))
            else:
                query = directed_query(self.DIRECTED[turn % 2])
                block.append(("directed", MatchRequest("count", query, graph="directed"), False))
            blocks.append([block[i] for i in rng.permutation(len(block))])
        return [item for i in rng.permutation(len(blocks)) for item in blocks[i]]

    def _churn(self, tally: Tally) -> None:
        u, v = self.pool[len(self.churns) % len(self.pool)]
        op = "-" if self.dynamic.has_edge(u, v) else "+"
        _, seconds = timed(lambda: self.service.apply_churn([(op, u, v)]))
        self.churns.append(seconds)
        tally.busy += seconds

    def _serve(self, request: MatchRequest, memoise: bool):
        handle = self.service.submit(request, memoise=memoise)
        handle.result()
        return handle

    def run_pass(self, tally: Tally) -> None:
        for mode, request, memoise in self.trace:
            if self.requests and self.requests % self.CHURN_EVERY == 0:
                self._churn(tally)
            self.requests += 1
            try:
                handle, seconds = timed(lambda: self._serve(request, memoise))
            except Exception as exc:  # noqa: BLE001 - rejected or failed: counted, not fatal
                tally.failures.append(f"{mode} {request.describe()}: {exc!r}")
                continue
            # correctness is checked in verify(), against each job's snapshot
            count = handle.result() if request.kind == "count" else 0
            tally.answer(mode, seconds, [(request.describe(), count, True)])
            self.served.append((request, handle))

    def verify(self) -> list[str]:
        sessions: dict[int, MatchSession] = {}
        truth: dict[tuple, int] = {}
        errors = []
        for request, handle in self.served:
            graph = handle.graph
            key = (id(graph), request.query.fingerprint)
            if key not in truth:
                session = sessions.setdefault(
                    id(graph), MatchSession(graph, backend="vectorised")
                )
                truth[key] = session.count(request.query).count
            want = truth[key]
            got = handle.result()
            if request.kind == "count":
                ok = got == want
            else:
                ok = len(got) == min(request.limit, want) and len(set(got)) == len(got)
            if not ok:
                errors.append(
                    f"served {request.describe()} at version {handle.version}: "
                    f"{got if request.kind == 'count' else len(got)} vs {want}"
                )
        # the StreamSession.expected_counts() oracle: a full recount on the
        # current snapshot must equal every maintained watch count
        session = MatchSession(self.dynamic.snapshot())
        for watch in self.watches:
            want = session.count(watch.query).count
            if watch.count != want:
                errors.append(f"watch {watch.name}: maintained {watch.count} vs {want}")
        return errors

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def cli_args(self, edge_list: Path) -> list[str]:
        return [
            "serve",
            "--synthetic",
            "12",
            "--pattern",
            ",".join(self.PATTERNS),
            "--churn-every",
            str(self.CHURN_EVERY),
            "--watch",
            "triangle",
            "--workers",
            str(self.WORKERS),
            "--seed",
            str(BASE_SEED),
            "--edge-list",
            str(edge_list),
        ]

    def cli_check(self, stdout: str) -> bool:
        return any(line.startswith("verify:") for line in stdout.splitlines())


WORKLOADS = {w.name: w for w in (Fig8Warm, PlanCold, ServeChurn)}

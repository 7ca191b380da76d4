"""Task partitioning (§IV-E): the one task layer under ``parallel`` and
``distributed``.

*"The master thread executes the outer loops and packs the values of the
outer loops into a task.  Worker threads unpack tasks and continue
executing the remaining inner loops."*

Both execution backends split the outermost loop.  The master
enumerates the viable roots (:meth:`Engine.iter_prefixes` at depth 1, so
the depth-0 restrictions are already applied) and :func:`root_tasks`
deals them into ranges with
:func:`~repro.runtime.worksteal.initial_distribution`, the policy the
cluster simulator uses for node queues.  A worker counts a range with
the callable :func:`task_counter` builds once per process: one bulk
:meth:`~repro.core.vectorised.FrontierEngine.count_roots` sweep when the
frontier engine serves the plan, the interpreter's
:meth:`Engine.count_prefix` summed over the roots otherwise (a labeled
IEP plan, or a schedule whose prefix is not connected).  The plan makes
that choice; no option does.  Counts are raw (before the IEP overcount
division), so partial sums add and the master divides once.

Deeper prefixes remain for the interpreter reference: a :class:`Task`
binds the outermost ``split_depth`` loops, :func:`choose_split_depth`
follows the paper's guidance ("the number of outer loops executed by the
master depends on the complexity of the pattern") and
:func:`run_partitioned` runs them sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.core.backend import MatchContext
from repro.core.config import ExecutionPlan
from repro.core.engine import Engine
from repro.core.vectorised import VectorisedBackend, frontier_engine_for
from repro.graph.csr import Graph
from repro.runtime.worksteal import initial_distribution


def root_tasks(
    engine: Engine, n_tasks: int, distribution: str = "block"
) -> list[list[int]]:
    """The viable roots dealt into at most ``n_tasks`` non-empty tasks.

    ``distribution`` is :func:`initial_distribution`'s mode: ``"block"``
    gives contiguous root ranges, ``"cyclic"`` deals them round-robin.
    Every viable root lands in exactly one task.
    """
    roots = [prefix[0] for prefix in engine.iter_prefixes(1)]
    n_tasks = max(1, min(n_tasks, len(roots)))
    queues = initial_distribution(len(roots), n_tasks, mode=distribution)
    return [[roots[i] for i in queue] for queue in queues if queue]


def task_executor(ctx: MatchContext) -> str:
    """The executor :func:`task_counter` builds for ``ctx``."""
    return "vectorised" if VectorisedBackend().supports(ctx) else "interpreter"


def task_counter(ctx: MatchContext) -> tuple[Callable[[Sequence[int]], int], str]:
    """``(roots -> raw count, executor name)`` for one process.

    Apply ``Engine(ctx.graph, ctx.plan).finalize_count`` to the sum of
    the raw task counts.
    """
    executor = task_executor(ctx)
    if executor == "vectorised":
        return frontier_engine_for(ctx).count_roots, executor
    engine = Engine(ctx.graph, ctx.plan)
    return (lambda roots: sum(engine.count_prefix((int(r),)) for r in roots)), executor


@dataclass(frozen=True)
class Task:
    """One interpreter task: an outer-loop prefix."""

    prefix: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.prefix)


def choose_split_depth(plan: ExecutionPlan, *, target_tasks: int | None = None,
                       graph: Graph | None = None) -> int:
    """Pick how many outer loops the master executes.

    Simple patterns (triangles) need only the outermost loop; complex
    patterns benefit from a second loop so that tasks are fine enough to
    balance.  If ``target_tasks`` and ``graph`` are given, split deeper
    until the estimated task count reaches the target (the paper's
    "much finer-grained subtask partitioning" future-work knob).
    """
    max_depth = max(1, plan.n_loops - 1)
    if target_tasks is None or graph is None:
        return 1 if plan.n <= 3 else min(2, max_depth)
    depth = 1
    estimate = graph.n_vertices
    while depth < max_depth and estimate < target_tasks:
        estimate *= max(2, int(graph.avg_degree))
        depth += 1
    return depth


def generate_tasks(engine: Engine, split_depth: int) -> Iterator[Task]:
    """Master-side enumeration of all tasks at ``split_depth``."""
    for prefix in engine.iter_prefixes(split_depth):
        yield Task(prefix)


def execute_task(engine: Engine, task: Task) -> int:
    """Worker-side: finish the inner loops under the task's prefix.

    Returns the raw (pre-IEP-division) count so partial results sum.
    """
    return engine.count_prefix(task.prefix)


def run_partitioned(graph: Graph, plan: ExecutionPlan, *, split_depth: int | None = None
                    ) -> tuple[int, list[tuple[Task, int]]]:
    """Sequential master/worker execution on the interpreter: the
    reference partial sums at any split depth.

    Returns ``(final_count, [(task, raw_subcount), ...])``.
    """
    engine = Engine(graph, plan)
    depth = split_depth if split_depth is not None else choose_split_depth(plan)
    results: list[tuple[Task, int]] = []
    total = 0
    for task in generate_tasks(engine, depth):
        sub = execute_task(engine, task)
        results.append((task, sub))
        total += sub
    return engine.finalize_count(total), results

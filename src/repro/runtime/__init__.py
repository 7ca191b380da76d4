"""Distributed/parallel runtime: tasks, work stealing, cluster simulation.

Mirrors §IV-E: root-range tasks from a master, worker execution of the
inner loops, and MPI-style work stealing between per-node queues.
``parallel`` runs the tasks for real on local cores, ``distributed``
runs the same tasks in process, and ``cluster`` replays measured task
costs through a deterministic event simulation at any node count.
"""

from repro.runtime.tasks import (
    Task,
    choose_split_depth,
    execute_task,
    generate_tasks,
    root_tasks,
    run_partitioned,
    task_counter,
)
from repro.runtime.worksteal import StealPolicy, VictimSelector, initial_distribution
from repro.runtime.cluster import (
    ClusterSimulator,
    ClusterSpec,
    SimulationResult,
    scaling_curve,
)
from repro.runtime.parallel import ParallelResult, measure_task_costs, parallel_count

__all__ = [
    "Task",
    "choose_split_depth",
    "execute_task",
    "generate_tasks",
    "root_tasks",
    "run_partitioned",
    "task_counter",
    "StealPolicy",
    "VictimSelector",
    "initial_distribution",
    "ClusterSimulator",
    "ClusterSpec",
    "SimulationResult",
    "scaling_curve",
    "ParallelResult",
    "measure_task_costs",
    "parallel_count",
]

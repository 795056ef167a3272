"""RAPID-style inspector/executor scheduling.

The paper schedules its task graph with the RAPID runtime [4]: an
*inspector* analyzes data accesses and builds a static schedule; an
*executor* replays it with communication/computation overlap. Our inspector
is the discrete-event simulator itself — it prices every task and commits a
per-processor execution order — and the resulting :class:`StaticSchedule`
can be replayed by the thread executor or re-simulated.

This module is a **schedule builder over the simulator** — it computes
orders, not factors. The real parallel engines
(:mod:`repro.parallel.threads`, :mod:`repro.parallel.procengine`)
deliberately do *not* replay a frozen order: their one release loop runs
a unit the moment its predecessors committed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.machine import MachineModel
from repro.parallel.mapping import make_mapping
from repro.parallel.simulate import SimulationResult, simulate_schedule
from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.tasks import Task
from repro.util.errors import SchedulingError


@dataclass
class StaticSchedule:
    """A committed schedule: owner map plus per-processor task order.

    ``proc_order[p]`` lists processor ``p``'s tasks in execution order; the
    interleaved global order (by simulated start time) is a topological
    order of the graph, so it can drive :class:`LUFactorization` directly.
    """

    owner: np.ndarray
    proc_order: list[list[Task]]
    predicted: SimulationResult

    @property
    def n_procs(self) -> int:
        return len(self.proc_order)

    def global_order(self) -> list[Task]:
        """All tasks sorted by simulated start time (topological)."""
        items = []
        for p, tasks in enumerate(self.proc_order):
            for t in tasks:
                items.append((self.predicted.start_times[t], str(t), t))
        items.sort()
        return [t for _, _, t in items]


def rapid_schedule(
    graph: TaskGraph,
    bp: BlockPattern,
    machine: MachineModel,
    *,
    mapping_policy: str = "cyclic",
) -> StaticSchedule:
    """Inspector: map columns, simulate, and freeze the task order."""
    owner = make_mapping(mapping_policy, bp, machine.n_procs)
    predicted = simulate_schedule(graph, bp, machine, owner, record_trace=True)
    if len(predicted.start_times) != graph.n_tasks:
        raise SchedulingError("simulation did not schedule every task")
    proc_order: list[list[Task]] = [[] for _ in range(machine.n_procs)]
    by_start = sorted(
        predicted.start_times.items(), key=lambda kv: (kv[1], str(kv[0]))
    )
    for task, _ in by_start:
        proc_order[int(owner[task.target])].append(task)
    return StaticSchedule(owner=owner, proc_order=proc_order, predicted=predicted)

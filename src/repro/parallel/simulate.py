"""Deterministic discrete-event simulation of a task-graph schedule.

Models the paper's execution environment: every task runs on the
processor its mapping assigns it, and a dependence that crosses
processors first ships the datum its source produced, once per (datum,
destination-processor) pair when the source completes (the
inspector-executor runtime pre-posts these sends, so they overlap with
computation). Each processor greedily runs the highest-priority ready task
(priority = bottom level, the classic list-scheduling heuristic RAPID's
scheduling layer approximates).

:func:`simulate_schedule` is the one pricing path for every graph the
engines run — the paper's 1-D ``F``/``U`` graphs under a block-column
owner array, the §6 2-D ``F``/``SL``/``SU``/``UP`` graph
(:func:`repro.parallel.two_d.build_2d_graph`) under a
:class:`~repro.parallel.mapping.GridMapping`, and the solve phase's
``FS``/``BS`` graph. The event mechanics live in
:mod:`repro.parallel.engine`, the prices in
:class:`repro.numeric.costs.CostModel`. The simulator is exact and
reproducible: same inputs → same makespan, which is what lets the
benchmark tables be regenerated deterministically.

This is **simulation, not execution** — no numeric value is touched; it
predicts what the real engines (:mod:`repro.parallel.threads`,
:mod:`repro.parallel.procengine`) and the message-passing executor do.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.numeric.costs import CostModel
from repro.parallel.engine import EngineResult, run_event_simulation
from repro.parallel.machine import MachineModel
from repro.parallel.mapping import GridMapping, task_owner
from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.dag import TaskGraph
from repro.util.errors import SchedulingError

#: Public alias: every simulation returns the same result type.
SimulationResult = EngineResult


def simulate_schedule(
    graph: TaskGraph,
    bp: BlockPattern,
    machine: MachineModel,
    mapping: "np.ndarray | GridMapping",
    *,
    record_trace: bool = False,
    metrics: Any = None,
) -> SimulationResult:
    """Simulate ``graph`` on ``machine`` under ``mapping``.

    Parameters
    ----------
    graph:
        A validated task dependence graph: S* or eforest (1-D), the 2-D
        block graph, or the solve graph.
    bp:
        The block pattern the tasks operate on (for costs).
    machine:
        Processor and network parameters.
    mapping:
        A 1-D owner array (``mapping[k]`` = processor of block column
        ``k``; every task runs on ``mapping[task.target]``) or a
        :class:`~repro.parallel.mapping.GridMapping` owning blocks.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry` receiving the
        ``engine.*`` busy/idle/message metrics of the run.
    """
    if isinstance(mapping, GridMapping):
        if mapping.n_procs > machine.n_procs:
            raise SchedulingError(
                f"grid {mapping.pr}x{mapping.pc} does not fit "
                f"{machine.n_procs} processors"
            )
    else:
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.size != bp.n_blocks:
            raise SchedulingError(
                f"mapping covers {mapping.size} columns, pattern has {bp.n_blocks}"
            )
        if mapping.size and (mapping.min() < 0 or mapping.max() >= machine.n_procs):
            raise SchedulingError(
                "mapping assigns a column to a nonexistent processor"
            )

    model = CostModel(bp)
    tasks = graph.tasks()
    return run_event_simulation(
        tasks,
        graph.successors,
        {t: graph.in_degree(t) for t in tasks},
        n_procs=machine.n_procs,
        owner_of=lambda t: task_owner(mapping, t),
        compute_time=lambda t: machine.compute_time(model.flops(t), model.width(t)),
        message_of=model.message,
        transfer_time=machine.transfer_time,
        record_trace=record_trace,
        metrics=metrics,
    )

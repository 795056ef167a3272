"""Parallel execution substrate.

The paper ran on a 16-processor SGI Origin 2000 with the RAPID runtime; we
reproduce the *behaviour* with three interchangeable executors:

* :mod:`repro.parallel.simulate` — a deterministic discrete-event simulator
  over a calibrated machine model (:mod:`repro.parallel.machine`): per-task
  flop costs, an α-β communication model, and a task-to-processor mapping
  (:mod:`repro.parallel.mapping`: 1-D block-column, or the §6 2-D grid).
  This regenerates Table 2 and Figures 5-6.
* :mod:`repro.parallel.rapid` — a RAPID-style inspector/executor: the
  inspector prices and orders tasks into a static per-processor schedule;
  the executor replays it (in simulation or on threads).
* :mod:`repro.parallel.threads` — a real shared-memory thread-pool executor
  that runs the task DAG against the numeric engine, proving the schedules
  are executable and numerically identical to the sequential order.
"""

from repro.parallel.machine import MachineModel, ORIGIN2000
from repro.parallel.mapping import (
    GridMapping,
    cyclic_mapping,
    blocked_mapping,
    greedy_mapping,
    make_mapping,
    mapping_key,
    task_owner,
)
from repro.parallel.engine import EngineResult, run_event_simulation
from repro.parallel.simulate import SimulationResult, simulate_schedule
from repro.parallel.dynamic import DynamicRuntime
from repro.parallel.message_passing import (
    MessagePassingResult,
    PanelMessage,
    ProcessEngine,
    message_passing_factorize,
)
from repro.parallel.dispatch import (
    DEFAULT_ENGINE,
    ENGINES,
    resolve_engine,
    run_engine,
)
from repro.parallel.procengine import (
    ProcPool,
    ProcStats,
    SharedArena,
    proc_factorize,
)
from repro.parallel.rapid import StaticSchedule, rapid_schedule
from repro.parallel.threads import threaded_factorize
from repro.parallel.two_d import (
    Task2D,
    build_2d_graph,
    canonical_2d_order,
    is_2d_graph,
)

__all__ = [
    "MachineModel",
    "ORIGIN2000",
    "GridMapping",
    "cyclic_mapping",
    "blocked_mapping",
    "greedy_mapping",
    "make_mapping",
    "mapping_key",
    "task_owner",
    "EngineResult",
    "run_event_simulation",
    "SimulationResult",
    "simulate_schedule",
    "DynamicRuntime",
    "MessagePassingResult",
    "PanelMessage",
    "ProcessEngine",
    "message_passing_factorize",
    "DEFAULT_ENGINE",
    "ENGINES",
    "ProcPool",
    "ProcStats",
    "SharedArena",
    "StaticSchedule",
    "proc_factorize",
    "rapid_schedule",
    "resolve_engine",
    "run_engine",
    "threaded_factorize",
    "Task2D",
    "build_2d_graph",
    "canonical_2d_order",
    "is_2d_graph",
]

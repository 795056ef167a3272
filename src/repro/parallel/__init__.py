"""Parallel execution substrate.

The paper ran on a 16-processor SGI Origin 2000 with the RAPID runtime.
Here the *models* — the discrete-event simulator over a calibrated machine
(:mod:`repro.parallel.simulate`, Table 2 and Figures 5-6), the RAPID-style
inspector (:mod:`repro.parallel.rapid`) and the dynamic runtime — sit
beside the engines that factorize for real: one release loop
(:mod:`repro.parallel.threads`) whose units run in pool threads or in
worker processes (:mod:`repro.parallel.procengine`), chosen by
:mod:`repro.parallel.dispatch`.
"""

from repro.parallel.machine import MachineModel, ORIGIN2000
from repro.parallel.mapping import (
    GridMapping,
    cyclic_mapping,
    blocked_mapping,
    greedy_mapping,
    make_mapping,
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

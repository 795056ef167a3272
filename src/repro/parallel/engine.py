"""Generic discrete-event list-scheduling engine.

Every graph :func:`repro.parallel.simulate.simulate_schedule` prices — the
1-D factorization, the §6 2-D block graph, the solve phase — shares the
same mechanics: tasks with fixed processor assignments and compute times,
messages materialized lazily per (key) with a transfer delay, and
per-processor work-conserving dispatch by bottom-level priority. This module
hosts that core once.

This is **simulation, not execution**: it prices tasks against a
:class:`~repro.parallel.machine.MachineModel` and never touches a numeric
value. The engines that really factorize are
:mod:`repro.parallel.threads` and :mod:`repro.parallel.procengine`; they
share this module's ``engine.*`` metric names so predictions and real
runs are directly comparable.

Event-loop invariants (mirrored from ``docs/parallel.md``; the tests in
``tests/parallel/test_engine.py`` and ``tests/obs/`` pin them):

* **Determinism.** Same DAG, costs, and mapping → the identical event
  sequence and makespan: ties between ready tasks break on the stringified
  task (total order), and message arrival is memoized per
  ``(datum key, destination processor)``, so no ordering depends on dict
  iteration. This is what lets the benchmark tables regenerate exactly.
* **Work conservation.** A processor never idles while it has a ready
  task: dispatch picks, over all processors, the earliest (start time,
  priority) candidate, where a processor's candidate is its best ready
  task or — if none is ready — its earliest future arrival.
* **Message dedup.** A datum crossing to a given processor is shipped once
  no matter how many tasks there consume it (the inspector-executor
  pre-posted-send model); ``n_messages``/``comm_bytes`` count these unique
  shipments only.
* **Accounting identity.** Every task contributes its compute time to
  exactly one processor's ``busy``, hence
  ``busy.sum() + idle == n_procs * makespan`` with
  ``idle = Σ_p (makespan - busy[p])`` — the identity the observability
  layer exports as ``engine.busy_seconds`` / ``engine.idle_seconds``.
* **Progress.** Each dispatched task decrements its successors'
  predecessor counts exactly once; if the loop cannot find a candidate
  while tasks remain, the DAG has a cycle (raised as ``SchedulingError``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from repro.util.errors import SchedulingError


@dataclass
class EngineResult:
    """Outcome of one simulated run (shared by all task models).

    ``start_times``/``finish_times``/``owners`` are populated only under
    ``record_trace=True``.
    """

    makespan: float
    busy: np.ndarray
    n_messages: int
    comm_bytes: int
    n_procs: int
    n_tasks: int = 0
    start_times: dict = field(repr=False, default_factory=dict)
    finish_times: dict = field(repr=False, default_factory=dict)
    owners: dict = field(repr=False, default_factory=dict)

    @property
    def idle(self) -> float:
        """Total idle seconds across processors (complement of ``busy``)."""
        return self.n_procs * self.makespan - float(self.busy.sum())

    def record_metrics(self, metrics) -> None:
        """Export this run's aggregates (:func:`record_engine_metrics`)."""
        record_engine_metrics(
            metrics,
            n_tasks=self.n_tasks,
            n_messages=self.n_messages,
            message_bytes=self.comm_bytes,
            busy_seconds=float(self.busy.sum()),
            idle_seconds=self.idle,
            makespan_seconds=self.makespan,
            n_procs=self.n_procs,
            efficiency=self.efficiency,
        )

    @property
    def efficiency(self) -> float:
        return float(self.busy.sum()) / (self.n_procs * self.makespan or 1.0)


def record_engine_metrics(
    metrics,
    *,
    n_tasks: int,
    n_messages: int,
    message_bytes: int,
    busy_seconds: float,
    idle_seconds: float,
    makespan_seconds: float,
    n_procs: int,
    efficiency: float,
) -> None:
    """Export one run's aggregates under the stable ``engine.*`` names
    (docs/observability.md) the simulator and the proc engine share.
    Counters accumulate across runs sharing a registry; gauges keep the
    last run's values."""
    metrics.counter("engine.tasks", unit="tasks").inc(n_tasks)
    metrics.counter("engine.messages", unit="messages").inc(n_messages)
    metrics.counter("engine.message_bytes", unit="bytes").inc(message_bytes)
    metrics.counter("engine.busy_seconds", unit="s").inc(busy_seconds)
    metrics.counter("engine.idle_seconds", unit="s").inc(idle_seconds)
    metrics.gauge("engine.makespan_seconds", unit="s").set(makespan_seconds)
    metrics.gauge("engine.n_procs", unit="procs").set(n_procs)
    metrics.gauge("engine.efficiency").set(efficiency)


def bottom_levels(
    topo_order: list, successors: Callable, cost: Callable
) -> dict:
    """Longest path (own cost included) from each task to an exit."""
    level: dict = {}
    for task in reversed(topo_order):
        tail = max((level[s] for s in successors(task)), default=0.0)
        level[task] = cost(task) + tail
    return level


def run_event_simulation(
    tasks: list,
    successors: Callable,
    in_degree: Mapping,
    *,
    n_procs: int,
    owner_of: Callable,
    compute_time: Callable,
    message_of: Optional[Callable] = None,
    transfer_time: Optional[Callable] = None,
    priority: Optional[Mapping] = None,
    record_trace: bool = False,
    metrics=None,
) -> EngineResult:
    """Simulate a task DAG under per-processor list scheduling.

    Parameters
    ----------
    tasks, successors, in_degree:
        The DAG: every task, its successor list, and predecessor counts.
    owner_of:
        Task -> processor index in ``[0, n_procs)``.
    compute_time:
        Task -> seconds of compute.
    message_of:
        ``(src_task, dst_task) -> (key, n_bytes) | None``; a non-None result
        on a cross-processor edge creates (once per ``(key, dst_proc)``) a
        message of ``n_bytes`` sent when ``src`` finishes.
    transfer_time:
        ``n_bytes -> seconds`` (required when ``message_of`` is given).
    priority:
        Dispatch priority per task (default: bottom level over compute
        time). Higher runs first among ready tasks.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry`. Records the
        run aggregates (:meth:`EngineResult.record_metrics`) plus an
        ``engine.ready_queue_depth`` histogram observed at every dispatch.
        ``None`` (the default) costs one branch per dispatch.
    """
    compute = {t: float(compute_time(t)) for t in tasks}
    if priority is None:
        order = _topological(tasks, successors, in_degree)
        priority = bottom_levels(order, successors, lambda t: compute[t])

    n_preds = {t: int(in_degree[t]) for t in tasks}
    dep_ready = {t: 0.0 for t in tasks}
    finish: dict = {}
    start_times: dict = {}
    arrival: dict = {}
    n_messages = 0
    comm_bytes = 0

    future: list[list[tuple[float, object]]] = [[] for _ in range(n_procs)]
    ready: list[list[tuple[float, object]]] = [[] for _ in range(n_procs)]
    proc_free = np.zeros(n_procs, dtype=np.float64)
    busy = np.zeros(n_procs, dtype=np.float64)
    owner = {t: int(owner_of(t)) for t in tasks}
    for t, p in owner.items():
        if not 0 <= p < n_procs:
            raise SchedulingError(f"task {t} mapped to invalid processor {p}")

    def data_time(src, dst, src_finish: float) -> float:
        nonlocal n_messages, comm_bytes
        if owner[src] == owner[dst] or message_of is None:
            return src_finish
        msg = message_of(src, dst)
        if msg is None:
            return src_finish
        key, nbytes = msg
        slot = (key, owner[dst])
        if slot not in arrival:
            assert transfer_time is not None
            arrival[slot] = src_finish + float(transfer_time(nbytes))
            n_messages += 1
            comm_bytes += int(nbytes)
        return arrival[slot]

    def sort_key(t) -> tuple:
        # Heap entries must be totally ordered; stringify for stability.
        return (-priority[t], str(t))

    def enqueue(task) -> None:
        p = owner[task]
        heapq.heappush(future[p], (dep_ready[task], str(task), task))

    def pull(p: int, now: float) -> None:
        while future[p] and future[p][0][0] <= now:
            _, _, task = heapq.heappop(future[p])
            heapq.heappush(ready[p], (*sort_key(task), task))

    for t, d in n_preds.items():
        if d == 0:
            enqueue(t)

    depth_hist = (
        metrics.histogram("engine.ready_queue_depth", unit="tasks")
        if metrics is not None
        else None
    )
    n_done, total = 0, len(tasks)
    while n_done < total:
        best = None
        for p in range(n_procs):
            pull(p, proc_free[p])
            if ready[p]:
                cand = (proc_free[p], ready[p][0][0], p)
            elif future[p]:
                rdy, _, task = future[p][0]
                cand = (max(proc_free[p], rdy), sort_key(task)[0], p)
            else:
                continue
            if best is None or cand < best:
                best = cand
        if best is None:
            raise SchedulingError("deadlock: tasks remain but none is ready")
        start, _, p = best
        pull(p, start)
        if depth_hist is not None:
            depth_hist.observe(len(ready[p]))
        _, _, task = heapq.heappop(ready[p])
        end = start + compute[task]
        proc_free[p] = end
        busy[p] += compute[task]
        finish[task] = end
        if record_trace:
            start_times[task] = start
        n_done += 1
        for succ in successors(task):
            avail = data_time(task, succ, end)
            dep_ready[succ] = max(dep_ready[succ], avail)
            n_preds[succ] -= 1
            if n_preds[succ] == 0:
                enqueue(succ)

    result = EngineResult(
        makespan=max(finish.values(), default=0.0),
        busy=busy,
        n_messages=n_messages,
        comm_bytes=comm_bytes,
        n_procs=n_procs,
        n_tasks=total,
        start_times=start_times,
        finish_times={t: finish[t] for t in start_times} if record_trace else {},
        owners=dict(owner) if record_trace else {},
    )
    if metrics is not None:
        result.record_metrics(metrics)
    return result


def _topological(tasks: list, successors: Callable, in_degree: Mapping) -> list:
    indeg = {t: int(in_degree[t]) for t in tasks}
    ready = [t for t, d in indeg.items() if d == 0]
    out = []
    while ready:
        t = ready.pop()
        out.append(t)
        for s in successors(t):
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(out) != len(tasks):
        raise SchedulingError("cycle detected in task DAG")
    return out

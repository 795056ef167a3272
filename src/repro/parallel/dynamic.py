"""Dynamic (run-time) task scheduling — the paper's second future-work item.

§6: "Another direction will be to use the automatic task scheduling
techniques for dynamically building the task dependence graph at run time."

The static pipeline materializes the full dependence graph (all edges)
before execution and hands it to an inspector/executor. This runtime instead
keeps only O(#tasks) counters and derives each task's successors *on
completion* from the block pattern and the block eforest — the same
Theorem-4 rules (factor gates its updates; an update gates the next
ancestor's work on the same target column), evaluated lazily. Edge lists are
never stored, which is the memory/latency trade dynamic runtimes make.

This is a scheduling **model, not a dispatchable engine**: ``run()``
drains tasks single-threaded to study orderings and counter behaviour.
Real concurrent execution lives in :mod:`repro.parallel.threads` and
:mod:`repro.parallel.procengine`.

The executed dependence relation is provably identical to
:func:`repro.taskgraph.eforest_graph.build_eforest_graph` (a unit test
asserts edge-set equality), so any interleaving the runtime produces yields
the same factors as the static schedule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.numeric.factor import LUFactorization
from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.eforest_graph import block_eforest
from repro.taskgraph.tasks import Task, factor_task, update_task, _upper_blocks_by_source
from repro.util.errors import SchedulingError


@dataclass
class DynamicRuntime:
    """Lazy-successor dataflow runtime over a block pattern.

    Parameters
    ----------
    bp:
        The supernodal block pattern ``B̄``.
    parent:
        Block LU eforest (computed from ``bp`` when omitted).
    """

    bp: BlockPattern
    parent: Optional[np.ndarray] = None
    _upper: list[list[int]] = field(init=False, repr=False)
    _sources: list[set[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.parent is None:
            self.parent = block_eforest(self.bp)
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self._upper = _upper_blocks_by_source(self.bp)
        self._sources = [set(js) for js in self._upper]

    # ------------------------------------------------------------------
    # Lazy graph queries (Theorem-4 rules, evaluated per task)
    # ------------------------------------------------------------------
    def tasks(self) -> Iterator[Task]:
        for k in range(self.bp.n_blocks):
            yield factor_task(k)
            for j in self._upper[k]:
                yield update_task(k, j)

    def successors(self, task: Task) -> list[Task]:
        """Successors of ``task``, derived on demand (no stored edges)."""
        if task.kind == "F":
            return [update_task(task.k, j) for j in self._upper[task.k]]
        # Update task: walk the ancestor chain to the next node working on
        # the same target column (rules 4/5 with the skip-walk).
        i, k = task.k, task.j
        j = int(self.parent[i])
        while j != -1 and j < k and k not in self._sources[j]:
            j = int(self.parent[j])
        if j == k:
            return [factor_task(k)]
        if j != -1 and j < k:
            return [update_task(j, k)]
        return []

    def initial_in_degrees(self) -> dict[Task, int]:
        """Predecessor counts via one linear sweep of lazy successor calls.

        O(#tasks x chain length) time and O(#tasks) memory — the runtime's
        replacement for the inspector's explicit edge lists.
        """
        indeg: dict[Task, int] = {t: 0 for t in self.tasks()}
        for t in list(indeg):
            for s in self.successors(t):
                indeg[s] += 1
        return indeg

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, engine: LUFactorization, *, fifo: bool = True, metrics=None
    ) -> list[Task]:
        """Execute the factorization, discovering readiness dynamically.

        ``fifo=True`` processes ready tasks in release order (a greedy
        runtime); ``fifo=False`` uses LIFO, deliberately exercising a very
        different interleaving. Returns the executed order.

        ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) records
        ``dynamic.tasks_executed`` and a ``dynamic.ready_queue_depth``
        histogram — the run-time analogue of the simulator's dispatch
        queue, showing how much instantaneous parallelism the lazy
        successor rules expose.
        """
        indeg = self.initial_in_degrees()
        ready: deque[Task] = deque(sorted(t for t, d in indeg.items() if d == 0))
        executed: list[Task] = []
        depth_hist = (
            metrics.histogram("dynamic.ready_queue_depth", unit="tasks")
            if metrics is not None
            else None
        )
        while ready:
            if depth_hist is not None:
                depth_hist.observe(len(ready))
            task = ready.popleft() if fifo else ready.pop()
            engine.run_task(task)
            executed.append(task)
            for succ in self.successors(task):
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if metrics is not None:
            metrics.counter("dynamic.tasks_executed", unit="tasks").inc(len(executed))
        if len(executed) != len(indeg):
            raise SchedulingError(
                f"dynamic runtime executed {len(executed)}/{len(indeg)} tasks"
            )
        return executed

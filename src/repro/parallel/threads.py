"""Shared-memory threaded execution of a factorization.

Runs the real numeric engine under a pool of worker threads — the
shared-memory analogue of the paper's distributed executor. NumPy kernels
release the GIL, so medium/large blocks overlap; more importantly this
proves that *any* machine-driven interleaving computes bitwise-consistent
factors (the tests compare against the sequential order).

The pool runs block steps and releases step ``k`` once its block-eforest
children's steps committed. That is sound: in the 1-D task graph every
path leaving a step's task leads to the same step or an eforest ancestor
(rules 3–5 of :mod:`repro.taskgraph.eforest_graph`), so steps the eforest
leaves unordered hold only mutually unordered tasks — and the
``factor-steps`` subject of :func:`repro.analysis.runner.analyze_plan`
proves the step footprints conflict-free over the block eforest.

Its release loop, :func:`_run_pool`, is the only scheduler of real
execution: the ``proc`` engine (:mod:`repro.parallel.procengine`) runs the
same loop and only moves each step's body into a worker process.
"""

from __future__ import annotations

import threading
from queue import Empty, Queue
from typing import Any, Callable, Iterable

import numpy as np

from repro.numeric.factor import LUFactorization
from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.eforest_graph import block_eforest
from repro.util.errors import SchedulingError


def threaded_factorize(
    engine: LUFactorization,
    n_threads: int = 4,
    *,
    metrics: Any = None,
) -> None:
    """Factorize on ``engine`` with ``n_threads`` workers running block
    steps over the block eforest, and return when it is complete. A step
    becomes eligible when its children committed; any worker exception
    aborts the pool and is re-raised.

    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) records
    ``threads.tasks_executed`` (steps), a
    ``threads.work_queue_depth`` histogram sampled at each dequeue, and the
    ``threads.workers`` gauge, updated without a lock (they may undercount
    under contention; the engine's own ``lazy_stats`` is exact).
    """
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    _run_pool([engine.step] * n_threads, *release_plan(engine.bp), metrics)


def release_plan(bp: BlockPattern) -> "tuple[dict[int, int], Callable[[int], list[int]]]":
    """The block steps of one run and what each completion releases:
    ``(step -> number of block-eforest children, step -> its parent)``."""
    parent = block_eforest(bp)
    n_children = np.bincount(parent[parent >= 0], minlength=parent.size)
    succ = [[p] if p >= 0 else [] for p in parent.tolist()]
    return dict(enumerate(n_children.tolist())), succ.__getitem__


def _run_pool(
    runners: "list[Callable[[Any], None]]",
    n_preds: "dict[Any, int]",
    successors: Callable[[Any], Iterable[Any]],
    metrics: Any,
) -> None:
    """Run every unit of ``n_preds`` (unit -> number of predecessors) on one
    thread per runner — thread ``r`` runs its units with ``runners[r]`` —
    releasing ``successors(unit)`` as their counters reach zero."""
    n_threads = len(runners)
    tasks_ctr: Any = None
    depth_hist: Any = None
    if metrics is not None:
        metrics.gauge("threads.workers", unit="threads").set(n_threads)
        tasks_ctr = metrics.counter("threads.tasks_executed", unit="tasks")
        depth_hist = metrics.histogram("threads.work_queue_depth", unit="tasks")
    lock = threading.Lock()
    work: Queue = Queue()
    total = len(n_preds)
    done_count = 0
    aborted = False
    errors: list[BaseException] = []
    _SENTINEL = None

    for t, d in n_preds.items():
        if d == 0:
            work.put(t)

    def drain() -> None:
        # Discard queued-but-unstarted units so sentinels are the only
        # thing left for peers to dequeue — no worker starts new numeric
        # work after an abort, and the queue is empty once the pool joins.
        while True:
            try:
                item = work.get_nowait()
            except Empty:
                return
            if item is _SENTINEL:
                work.put(_SENTINEL)  # keep peer wake-ups intact
                return

    def worker(run: Callable[[Any], None]) -> None:
        nonlocal done_count, aborted
        unit = _SENTINEL
        while True:
            if unit is _SENTINEL:
                unit = work.get()
                if unit is _SENTINEL:
                    return
                if depth_hist is not None:
                    depth_hist.observe(work.qsize())
            with lock:
                if aborted:
                    unit = _SENTINEL
                    continue  # swallow stale units until a sentinel arrives
            try:
                run(unit)
            except BaseException as exc:  # propagate to caller
                with lock:
                    errors.append(exc)
                    aborted = True
                    done_count = total  # unblock everyone
                drain()
                for _ in range(n_threads):
                    work.put(_SENTINEL)
                return
            if tasks_ctr is not None:
                tasks_ctr.inc()
            with lock:
                done_count += 1
                finished = done_count >= total
                released = []
                if not aborted:
                    for succ in successors(unit):
                        n_preds[succ] -= 1
                        if n_preds[succ] == 0:
                            released.append(succ)
            # Keep one released unit and run it next, here: a chain of the
            # eforest stays on one thread and wakes no peer.
            unit = released.pop(0) if released else _SENTINEL
            for succ in released:
                work.put(succ)
            if finished:
                for _ in range(n_threads):
                    work.put(_SENTINEL)

    if not total:
        return
    threads = [threading.Thread(target=worker, args=(run,), daemon=True) for run in runners]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        # Leftover sentinels (and any unit a peer enqueued during the
        # abort window) must not outlive the pool.
        while True:
            try:
                work.get_nowait()
            except Empty:
                break
        raise errors[0]
    if done_count != total:
        raise SchedulingError(f"threaded execution finished {done_count}/{total} units")

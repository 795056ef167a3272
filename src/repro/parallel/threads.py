"""Shared-memory threaded execution of a factorization.

Runs the real numeric engine under a pool of worker threads: the
in-process concurrent oracle, whose release order is whatever the threads
make of it while the factors stay bitwise those of the sequential order.

The pool runs the units of a cut of the block eforest (:func:`release_plan`):
maximal subtrees, independent by Theorems 3–4, and the top steps above
them, each unit's steps in ascending block order once the units below it
committed. In the 1-D task graph every path leaving a step's task leads
to the same step or an eforest ancestor (rules 3–5 of
:mod:`repro.taskgraph.eforest_graph`), and the ``factor-steps`` subject of
:func:`repro.analysis.runner.analyze_plan` proves the step footprints
conflict-free over the block eforest. Unit bodies run one at a time:
two busy threads hand the GIL across cores at every release NumPy makes
inside a step, which costs more than their overlap buys. The release loop,
:func:`_run_pool`, is the only scheduler of real execution: the ``proc``
engine (:mod:`repro.parallel.procengine`) runs it over the same cut with
the unit bodies in worker processes, truly in parallel.
"""

from __future__ import annotations

import heapq
import threading
from collections import Counter
from queue import Empty, Queue
from typing import Any, Callable, NamedTuple

from repro.numeric.costs import CostModel
from repro.numeric.factor import LUFactorization
from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.eforest_graph import block_eforest
from repro.util.errors import DispatchError, SchedulingError

#: A block step's fixed cost in flops: ≈ 85 µs of interpreter time at the
#: kernels' ≈ 7 Gflop/s (sherman3 @ 0.5's steps, 2-CPU x86-64 host).
STEP_FLOPS = 600_000


def threaded_factorize(
    engine: LUFactorization,
    n_threads: int = 4,
    *,
    metrics: Any = None,
) -> None:
    """Factorize on ``engine`` with ``n_threads`` workers running the units
    of :func:`release_plan`, and return when it is complete. A unit
    becomes eligible when the units below it committed; any worker
    exception aborts the pool and is re-raised.

    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) records
    ``threads.tasks_executed`` (units), a
    ``threads.work_queue_depth`` histogram sampled at each dequeue, and the
    ``threads.workers`` gauge, updated without a lock (they may undercount
    under contention; the engine's own ``lazy_stats`` is exact).
    """
    cut, body = release_plan(engine.bp, n_threads), threading.Lock()

    def run(u: int) -> None:
        with body:
            for k in cut.units[u]:
                engine.step(k)

    _run_pool([run] * n_threads, cut.successors, metrics)


class UnitCut(NamedTuple):
    """The units of one run: subtrees, heaviest first (the LPT order the
    release queue keeps), then the top steps, ascending."""

    units: "list[list[int]]"  # unit -> its block steps, ascending
    successors: "list[list[int]]"  # unit -> the unit its completion counts down
    subtree_share: float  # predicted share of the work inside subtree units


def release_plan(bp: BlockPattern, n_workers: int) -> UnitCut:
    """The cut ``n_workers`` run over ``bp``, computed once and kept on
    ``bp``: split the heaviest subtree into its root (a top step) and its
    children, from the roots down, and keep the front where the subtrees'
    LPT makespan on ``n_workers`` plus the top steps' serial cost is
    lowest. A step costs its tasks' :class:`CostModel` flops plus
    :data:`STEP_FLOPS`."""
    if n_workers < 1:
        raise DispatchError(f"need at least one worker, got {n_workers}")
    cuts = vars(bp).setdefault("_unit_cuts", {})
    if n_workers in cuts:
        return cuts[n_workers]
    parent = block_eforest(bp).tolist()
    n, cost = len(parent), (CostModel(bp).step_flops() + STEP_FLOPS).tolist()
    below, children = list(cost), [[] for _ in parent]  # below: subtree cost
    for k, p in enumerate(parent):  # children come before parents
        if p >= 0:
            below[p] += below[k]
            children[p].append(k)
    total = sum(cost)
    front = [(-below[k], k) for k, p in enumerate(parent) if p < 0]
    heapq.heapify(front)
    top, tops, best = 0.0, [], (float("inf"), 0)
    # No deeper front can cost less than top + (total - top) / n_workers.
    while front and top + (total - top) / n_workers < best[0]:
        loads = [0.0] * n_workers
        for c, _ in sorted(front):
            heapq.heapreplace(loads, loads[0] - c)
        best = min(best, (top + max(loads), len(tops)))
        _, k = heapq.heappop(front)
        top += cost[k]
        tops.append(k)
        for c in children[k]:
            heapq.heappush(front, (-below[c], c))
    is_top = set(tops[: best[1]])
    head = list(range(n))  # the step heading each step's unit
    for k in reversed(range(n)):  # parents come before children
        if parent[k] >= 0 and parent[k] not in is_top:
            head[k] = head[parent[k]]
    roots = sorted(set(head) - is_top, key=lambda r: -below[r])
    unit = {h: u for u, h in enumerate(roots + sorted(is_top))}
    units: list[list[int]] = [[] for _ in unit]
    for k, h in enumerate(head):
        units[unit[h]].append(k)
    succ = [[unit[head[parent[h]]]] if parent[h] >= 0 else [] for h in unit]
    share = sum(below[r] for r in roots) / max(total, 1.0)
    cuts[n_workers] = UnitCut(units, succ, share)
    return cuts[n_workers]


def _run_pool(
    runners: "list[Callable[[Any], None]]",
    successors: "list[list[int]]",
    metrics: Any,
) -> None:
    """Run units ``0 .. len(successors) - 1`` on one thread per runner —
    thread ``r`` runs its units with ``runners[r]`` — releasing unit ``s``
    once every unit listing it in ``successors`` completed, and queueing
    the units ready at the start in index order."""
    n_threads = len(runners)
    tasks_ctr: Any = None
    depth_hist: Any = None
    if metrics is not None:
        metrics.gauge("threads.workers", unit="threads").set(n_threads)
        tasks_ctr = metrics.counter("threads.tasks_executed", unit="units")
        depth_hist = metrics.histogram("threads.work_queue_depth", unit="units")
    lock = threading.Lock()
    work: Queue = Queue()
    total = len(successors)
    n_preds = Counter(s for succ in successors for s in succ)
    done_count = 0
    aborted = False
    errors: list[BaseException] = []
    _SENTINEL = None

    for t in range(total):
        if not n_preds[t]:
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
                    for succ in successors[unit]:
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

"""Multi-process fan-both execution over a shared-memory panel arena.

This module is **execution**, not simulation: it factorizes for real on a
pool of worker *processes*, escaping the GIL that bounds
:mod:`repro.parallel.threads`. The design follows the fan-both
asynchronous task runtimes (Jacquelin et al., arXiv:1608.00044):

* **One shared arena.** The panel store's two buffers — every dense
  panel, every block's pivot renaming — live in a single
  ``multiprocessing.shared_memory`` segment sized from the immutable
  :class:`~repro.numeric.blockdata.BlockLayout`. Workers are forked from
  the parent and attach their store to the inherited mapping — panel
  data never crosses a pipe and nothing on the hot path is pickled; the
  parent copies each run's values in before starting it.
* **Worker-owned task queues.** Block columns are assigned to ranks by a
  1-D mapping (blocked by default — contiguous ranges keep most edges
  rank-local, and a cross-rank message here is a real pipe write); a
  rank owns every task targeting its columns and keeps private
  dependence counters for them, seeded from the static
  :class:`~repro.taskgraph.dag.TaskGraph`.
* **Warm pools.** The per-run static work — liveness gate, graph
  flattening, arena allocation, fork — depends only on the plan, so
  :class:`ProcPool` binds it once and parked workers serve repeated
  refactorizations (``GO``/``QUIT`` control words); the static analysis
  is amortized exactly as the paper amortizes its symbolic
  factorization. :func:`proc_factorize` is the one-shot wrapper.
* **Messages, not barriers.** Completing a task decrements local
  counters directly and posts one small completion message (the task's
  integer index) to each *distinct* remote rank owning a successor. A
  task fires the moment its counter hits zero — there are no level
  barriers anywhere.

Because the static analyzer proves every conflicting task pair is ordered
by the dependence graph (``repro.analysis.races``), any schedule the
message protocol admits performs the same reads and writes in the same
per-panel order as the sequential reference — the factors are therefore
*bitwise* identical, which the tests assert with exact equality.

Termination is by counting: a worker exits once all its owned tasks ran.
Every inbound message precedes the readiness of some owned task, so a
finished worker has necessarily drained its inbox. A worker that dies
instead (signal, ``os._exit``) is detected by the parent monitor, which
terminates the pool, drains the queues, destroys the arena, and raises
:class:`~repro.util.errors.EngineError`; in-worker exceptions are
forwarded and re-raised with their original type. The liveness gate
(:func:`repro.analysis.races.check_message_protocol`) runs
*unconditionally* before any process starts: a bad graph that would
merely fail fast on threads would strand a process pool.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_mod
import struct
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.numeric.blockdata import BlockLayout
from repro.numeric.factor import LUFactorization
from repro.parallel.engine import record_engine_metrics
from repro.parallel.mapping import GridMapping, mapping_key, task_owner
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.tasks import Task
from repro.util.errors import AnalysisError, EngineError

_FLOAT = np.dtype(np.float64)
_INT = np.dtype(np.int64)

# Completion-message wire format: little-endian int64 task indices,
# possibly several per write (see the batching note in _worker_main).
# struct beats pickle on the hot path, and a batch of _FLUSH_EVERY
# messages is still far below PIPE_BUF, so concurrent senders stay
# atomic single writes.
_MSG = struct.Struct("<q")
_FLUSH_EVERY = 16

# Control words on the completion-message pipes. Task indices are >= 0,
# so negative values are unambiguous: _GO starts one factorization run on
# a persistent worker, _QUIT makes it return. Anything the worker
# receives while parked between runs that is >= 0 is an early completion
# message from a peer that already started the next run, and is absorbed
# into the freshly reseeded counters.
_GO = -1
_QUIT = -2


class SharedArena:
    """One shared-memory segment holding the panel store's two buffers.

    ``[ values | pivot_ids ]`` — the flat float64 panel buffer and the flat
    int64 pivot-slot buffer of a full-ownership
    :class:`~repro.numeric.blockdata.BlockColumnData`, sized from its
    :class:`BlockLayout`; a worker hands the two views to
    ``BlockColumnData.attach`` and addresses them exactly as it would
    private memory. Block ``k``'s pivot slot is written by exactly one rank
    (the owner of ``k``) strictly before that rank posts ``F(k)``'s
    completion message, so readers never see a partial write.

    The creating process is the only one allowed to :meth:`destroy` the
    segment; forked children inherit the mapping and simply exit.
    """

    def __init__(self, layout: BlockLayout) -> None:
        n_values = int(np.dot(layout.panel_heights, layout.widths))
        n_pivots = layout.sub_ptr[-1]
        split = n_values * _FLOAT.itemsize
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(1, split + n_pivots * _INT.itemsize)
        )
        self._owner_pid = multiprocessing.current_process().pid
        self.values: np.ndarray = np.ndarray(
            (n_values,), dtype=_FLOAT, buffer=self.shm.buf
        )
        self.pivot_ids: np.ndarray = np.ndarray(
            (n_pivots,), dtype=_INT, buffer=self.shm.buf, offset=split
        )

    def destroy(self) -> None:
        """Release the mapping and unlink the segment (idempotent).

        Only the creating process unlinks — a forked child calling this
        (e.g. via a ``finally`` on an inherited object) is a no-op, so the
        segment cannot be yanked out from under live siblings.
        """
        if multiprocessing.current_process().pid != self._owner_pid:
            return
        self.values = self.pivot_ids = np.empty(0)  # drop the exported views
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass  # unlink below still reclaims the segment at process exit
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


@dataclass
class ProcStats:
    """Aggregates of one multi-process run (names mirror the simulator's
    :class:`repro.parallel.engine.EngineResult` where they overlap)."""

    n_procs: int
    n_tasks: int
    n_messages: int
    message_bytes: int
    busy_seconds: float
    idle_seconds: float
    makespan_seconds: float
    per_rank_tasks: list[int] = field(default_factory=list)

    @property
    def efficiency(self) -> float:
        denom = self.n_procs * self.makespan_seconds
        return self.busy_seconds / denom if denom > 0 else 0.0

    def record_metrics(self, metrics: Any) -> None:
        """Export into a registry under the ``engine.*`` names shared with
        the event simulator (:func:`record_engine_metrics`)."""
        record_engine_metrics(
            metrics,
            n_tasks=self.n_tasks,
            n_messages=self.n_messages,
            message_bytes=self.message_bytes,
            busy_seconds=self.busy_seconds,
            idle_seconds=self.idle_seconds,
            makespan_seconds=self.makespan_seconds,
            n_procs=self.n_procs,
            efficiency=self.efficiency,
        )


def _worker_main(
    rank: int,
    engine: LUFactorization,
    arena: SharedArena,
    task_list: list[Task],
    succ_idx: list[list[int]],
    owner: list[int],
    indeg: list[int],
    notify: list[list[int]],
    inboxes: list[Any],
    outboxes: list[Any],
    ctrl: Any,
    fault_hook: Any,
) -> None:
    """Body of one persistent worker process (entered right after fork).

    The worker parks on its inbox between factorizations and runs the
    fan-both loop once per ``_GO`` control word: pop a ready owned task,
    ``run_task`` it on the engine whose store is attached to the arena,
    decrement local successor counters, post one completion message per
    distinct remote successor owner; block on the inbox only when no
    owned task is ready.
    A run ends when every owned task ran — by then the inbox holds no
    message *for this run* (each inbound message precedes the readiness
    of some owned task), the worker reports its stats on ``ctrl``,
    reseeds its counters, and parks again. ``_QUIT`` makes it return.

    While parked, the only possible inbox traffic besides control words
    is completion messages from peers that already started the *next*
    run — the parent sends ``_GO`` only after the copy-in for that run
    completes, so absorbing them into the reseeded counters is safe.

    Inboxes are raw pipe :class:`~multiprocessing.connection.Connection`
    pairs, not :class:`multiprocessing.Queue`: completion messages are
    struct-packed int64 task indices, so the hot path costs one syscall
    per write instead of a feeder-thread handoff. Outgoing notifications
    are batched — flushed when the local ready deque drains, every
    ``_FLUSH_EVERY`` completions, and at end of run — which keeps every
    write far below ``PIPE_BUF`` (concurrent senders stay atomic) while
    cutting the per-message wakeup syscalls several-fold. Liveness is
    preserved because a worker always flushes before blocking on its
    inbox and before reporting done: no message is withheld while its
    sender waits.
    """
    engine.metrics = None  # a forked registry would count into the void
    # Forked copy of the parent's AccessSanitizer (or None): records this
    # worker's accesses and happens-before observations; each run's
    # results ship back in the done report and the parent merges them.
    san = engine.sanitizer
    # Re-point the inherited store at the arena: every panel and pivot
    # read and write in this process goes through the shared segment. (The
    # parent keeps its own private buffers and copies them in per run.)
    engine.data.attach(arena.values, arena.pivot_ids)
    inbox = inboxes[rank]
    own = [i for i in range(len(task_list)) if owner[i] == rank]
    entry = [i for i in own if indeg[i] == 0]
    try:
        while True:
            # ---- reseed one run -------------------------------------
            counters = {i: indeg[i] for i in own}
            ready: deque[int] = deque(entry)
            remaining = len(own)
            busy = 0.0
            idle = 0.0
            n_messages = 0
            message_bytes = 0
            ls = engine.lazy_stats
            lazy0 = (
                ls.n_updates_skipped,
                ls.n_updates_run,
                ls.flops_saved,
                ls.flops_spent,
            )
            pending_out: list[list[int]] = [[] for _ in outboxes]
            out_count = 0
            # Left by the previous run; the engine object outlives it.
            engine.panel_facts.clear()
            engine.done.clear()
            if san is not None:
                san.reset_run()

            def absorb(data_: bytes) -> None:
                for (done_idx,) in _MSG.iter_unpack(data_):
                    if san is not None:
                        # The completion message is the happens-before
                        # edge the sanitizer's begin() checks.
                        san.note_completion(task_list[done_idx])
                    for s in succ_idx[done_idx]:
                        if owner[s] == rank:
                            counters[s] -= 1
                            if counters[s] == 0:
                                ready.append(s)

            def flush() -> None:
                nonlocal out_count, n_messages, message_bytes
                if not out_count:
                    return
                for r, buf in enumerate(pending_out):
                    if buf:
                        outboxes[r].send_bytes(
                            b"".join(_MSG.pack(v) for v in buf)
                        )
                        n_messages += len(buf)
                        message_bytes += _MSG.size * len(buf)
                        buf.clear()
                out_count = 0

            # ---- park until the parent starts the run ----------------
            while True:
                data_ = inbox.recv_bytes()
                word = _MSG.unpack_from(data_)[0]
                if word == _QUIT:
                    return
                if word == _GO:
                    break
                absorb(data_)  # a peer already started this run

            # ---- fan-both run ---------------------------------------
            since_drain = 0
            while remaining:
                if not ready:
                    flush()  # never block holding peers' enablements
                    t0 = time.perf_counter()
                    absorb(inbox.recv_bytes())
                    idle += time.perf_counter() - t0
                    since_drain = 0
                    continue
                # Opportunistic drain every few tasks: absorbing queued
                # completions keeps the pipe backlog far below the
                # kernel buffer (senders block only on a full pipe)
                # while paying the poll() syscall on ~1/64 of tasks.
                since_drain += 1
                if since_drain >= 64:
                    since_drain = 0
                    while inbox.poll():
                        absorb(inbox.recv_bytes())
                i = ready.popleft()
                task = task_list[i]
                t0 = time.perf_counter()
                engine.run_task(task)
                busy += time.perf_counter() - t0
                if fault_hook is not None:
                    fault_hook(rank, task)
                remaining -= 1
                for s in succ_idx[i]:
                    if owner[s] == rank:
                        counters[s] -= 1
                        if counters[s] == 0:
                            ready.append(s)
                for r in notify[i]:
                    pending_out[r].append(i)
                    out_count += 1
                if out_count >= _FLUSH_EVERY or not ready:
                    flush()
            flush()  # final completions peers are still waiting on
            report = {
                "n_tasks": len(own),
                "busy": busy,
                "idle": idle,
                "n_messages": n_messages,
                "message_bytes": message_bytes,
                # Per-run deltas: the engine accumulates across
                # the worker's whole lifetime, the parent wants
                # this run only.
                "lazy": (
                    ls.n_updates_skipped - lazy0[0],
                    ls.n_updates_run - lazy0[1],
                    ls.flops_saved - lazy0[2],
                    ls.flops_spent - lazy0[3],
                ),
            }
            if san is not None:
                report["sanitize"] = san.export_run()
            ctrl.put(("done", rank, report))
    except BaseException as exc:
        try:
            payload = pickle.dumps(exc)
        except Exception:
            payload = None
        ctrl.put(("error", rank, payload, repr(exc), traceback.format_exc()))


def _notify_lists(
    succ_idx: list[list[int]], owner: list[int], n_workers: int
) -> list[list[int]]:
    """Per-task remote-notification lists, computed once in the parent.

    ``notify[i]`` is the sorted list of ranks (other than task ``i``'s own
    owner) that own at least one successor of ``i`` — exactly the
    destinations of ``i``'s completion messages. Precomputing it keeps a
    per-task set build plus sort off the workers' hot loop; the bitmask
    path vectorizes the edge scan for the pool sizes that matter.
    """
    n = len(succ_idx)
    notify: list[list[int]] = [[] for _ in range(n)]
    if n == 0:
        return notify
    if n_workers > 62:  # pragma: no cover - int64 bitmask would overflow
        for i, succs in enumerate(succ_idx):
            ranks = {owner[s] for s in succs} - {owner[i]}
            notify[i] = sorted(ranks)
        return notify
    owner_arr = np.asarray(owner, dtype=np.int64)
    counts = np.fromiter((len(s) for s in succ_idx), dtype=np.int64, count=n)
    total = int(counts.sum())
    if total == 0:
        return notify
    succ_flat = np.fromiter(
        (s for succs in succ_idx for s in succs), dtype=np.int64, count=total
    )
    edge_src = np.repeat(np.arange(n, dtype=np.int64), counts)
    mask = np.zeros(n, dtype=np.int64)
    np.bitwise_or.at(mask, edge_src, np.int64(1) << owner_arr[succ_flat])
    mask &= ~(np.int64(1) << owner_arr)
    for i in np.nonzero(mask)[0]:
        bits = int(mask[i])
        notify[i] = [r for r in range(n_workers) if bits >> r & 1]
    return notify


def _abort_pool(
    procs: list[Any], inboxes: list[Any], outboxes: list[Any], ctrl: Any
) -> None:
    """Terminate every worker and discard all message channels (abort
    hygiene).

    Mirrors the threaded executor's contract: once the error propagates,
    no channel holds live messages and no worker process survives. The
    pipes are closed unread: a worker killed between reading a message's
    length and its body leaves a pipe no reader can parse (draining one
    blocked forever).
    """
    for p in procs:
        if p.is_alive():
            p.terminate()
    for p in procs:
        p.join(timeout=5.0)
        if p.is_alive():  # pragma: no cover - terminate() refused to stick
            p.kill()
            p.join(timeout=5.0)
    for conn in (*inboxes, *outboxes):
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
    try:
        while True:
            ctrl.get_nowait()
    except (queue_mod.Empty, OSError, EOFError):
        pass


def proc_factorize(
    engine: LUFactorization,
    graph: TaskGraph,
    n_workers: int = 4,
    *,
    mapping: "np.ndarray | GridMapping | None" = None,
    metrics: Any = None,
    tracer: Any = None,
    _fault_hook: Any = None,
) -> ProcStats:
    """Execute every task of ``graph`` on ``engine`` with ``n_workers``
    worker *processes* over a shared-memory arena; returns run statistics.

    Drop-in alternative to :func:`repro.parallel.threads.threaded_factorize`
    — the engine is mutated in place and ``engine.extract()`` afterwards
    yields factors bitwise identical to the sequential reference.

    Parameters
    ----------
    engine:
        A freshly constructed :class:`LUFactorization` (panels still
        holding the scattered values of ``A``).
    graph:
        A sufficient dependence graph (eforest or S*). Checked by the
        message-protocol liveness gate *before* any process starts.
    n_workers:
        Number of worker processes (>= 1).
    mapping:
        1-D block-column mapping ``owner[k] in [0, n_workers)`` (default
        blocked; tasks run on the owner of their target column) or a
        :class:`repro.parallel.mapping.GridMapping` placing 2-D tasks
        block-cyclically on a ``pr x pc`` grid (the default for a 2-D
        graph is the most-square grid over ``n_workers``).
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry`; receives the
        ``engine.*`` aggregates (see :meth:`ProcStats.record_metrics`).
    tracer:
        Optional :class:`repro.obs.trace.Tracer`; the run executes inside
        an ``engine.proc`` span carrying makespan/messages/efficiency.
    _fault_hook:
        Test hook ``(rank, task) -> None`` called in the worker after each
        task — fault-injection for the killed-worker regression tests.

    Raises
    ------
    AnalysisError:
        The graph fails the message-protocol liveness gate (cycle, task
        set mismatch, unmapped column).
    EngineError:
        A worker process died without reporting, or the platform lacks
        the ``fork`` start method (the no-pickling design requires
        inherited memory mappings).

    This is a convenience wrapper around a transient :class:`ProcPool`:
    one pool is bound, the run executes, and the pool (workers, pipes,
    arena) is torn down before returning — no shared-memory segment
    outlives the call. Services that factorize repeatedly should hold a
    long-lived :class:`ProcPool` instead, which keeps the workers warm
    and skips the per-call bind cost.
    """
    pool = ProcPool(n_workers)
    try:
        return pool.factorize(
            engine,
            graph,
            mapping=mapping,
            metrics=metrics,
            tracer=tracer,
            _fault_hook=_fault_hook,
        )
    finally:
        pool.close()


def _monitor(procs: list[Any], ctrl: Any, stats_by_rank: dict) -> None:
    """Parent-side supervision: collect per-rank reports, detect deaths.

    A worker that exits without having reported (killed, ``os._exit``,
    segfault) surfaces as :class:`EngineError`; an in-worker exception is
    re-raised with its original type when it round-trips through pickle.
    """
    pending = set(range(len(procs)))
    while pending:
        try:
            msg = ctrl.get(timeout=0.2)
        except queue_mod.Empty:
            # Drain any report racing with its sender's exit before
            # declaring the sender dead.
            while True:
                try:
                    msg = ctrl.get_nowait()
                except queue_mod.Empty:
                    break
                _consume(msg, pending, stats_by_rank)
            dead = sorted(
                r for r in pending if procs[r].exitcode is not None
            )
            if dead:
                codes = ", ".join(
                    f"rank {r} exitcode {procs[r].exitcode}" for r in dead
                )
                raise EngineError(
                    f"{len(dead)} worker process(es) died without "
                    f"reporting ({codes}); pool terminated"
                )
            continue
        _consume(msg, pending, stats_by_rank)


def _consume(msg: tuple, pending: set, stats_by_rank: dict) -> None:
    kind = msg[0]
    if kind == "done":
        _, rank, stats = msg
        stats_by_rank[rank] = stats
        pending.discard(rank)
        return
    _, rank, payload, exc_repr, tb_text = msg
    if payload is not None:
        try:
            exc = pickle.loads(payload)
        except Exception:  # exception type not importable here
            exc = None
        if isinstance(exc, BaseException):
            raise exc
    raise EngineError(
        f"worker rank {rank} failed: {exc_repr}\n{tb_text}"
    )


def _gather(
    engine: LUFactorization,
    arena: SharedArena,
    stats_by_rank: dict,
) -> None:
    """Copy the arena's two buffers back into the parent engine's store,
    then recompose the global row permutation from the pivot slots."""
    engine.data.values[...] = arena.values
    engine.data.pivot_ids[...] = arena.pivot_ids
    engine.recompose_orig_at()
    # Fold the workers' task counts and LazyS+ accounting back into the
    # parent engine.
    for s in stats_by_rank.values():
        engine.tally(s["n_tasks"], *s["lazy"])


class ProcPool:
    """A persistent, shareable pool of fan-both worker processes.

    The expensive parts of a proc-engine run — the liveness gate, graph
    flattening, arena allocation, and the fork itself — depend only on
    the task graph, the block layout, and the mapping, none of which
    change across the repeated refactorizations a serving workload
    performs. A ``ProcPool`` therefore *binds* to that static plan on
    first use (forking workers that park on their inboxes) and each
    subsequent :meth:`factorize` against the same plan only copies the
    new panel values into the arena, wakes the workers with a ``GO``
    control word, collects their reports, and gathers the factors back —
    the static analysis is amortized exactly as the paper's symbolic
    factorization is. Calling with a different graph, block pattern, or
    mapping tears the old pool down and rebinds.

    :class:`repro.serve.service.SolverService` runs several serving
    threads; letting each spawn its own process pool would oversubscribe
    the machine and multiply arena memory. The pool is the shared policy
    object: it carries the worker count and serializes factorizations
    through one lock, so at most one arena and one set of worker
    processes exist at a time. One shared-memory segment stays alive
    while the pool is bound; ``close()`` quits the workers, unlinks the
    segment, and makes subsequent use raise :class:`EngineError` — the
    service calls it on shutdown, after which nothing is leaked. Any
    worker failure also tears the pool down (abort hygiene); the next
    call simply rebinds.
    """

    def __init__(self, n_workers: int = 4) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._lock = threading.Lock()
        self._closed = False
        self._state: dict | None = None

    # ------------------------------------------------------------------
    # Bind / teardown
    # ------------------------------------------------------------------
    def _bind(
        self,
        engine: LUFactorization,
        graph: TaskGraph,
        mapping: "np.ndarray | GridMapping",
        fault_hook: Any,
    ) -> dict:
        """Gate, flatten, allocate, fork — everything per-plan rather
        than per-factorization. Called with the lock held."""
        from repro.analysis.footprints import (
            expected_2d_tasks,
            expected_factor_tasks,
        )
        from repro.analysis.races import check_message_protocol
        from repro.parallel.two_d import is_2d_graph

        bp = engine.bp
        expected = (
            expected_2d_tasks(bp)
            if is_2d_graph(graph)
            else expected_factor_tasks(bp)
        )
        # No separate graph.validate(): the protocol gate runs the same
        # cycle check (as a Finding rather than a SchedulingError) and
        # the graph is walked exactly once before any process starts.
        findings = check_message_protocol(
            graph,
            expected,
            owner=mapping,
            n_ranks=self.n_workers,
        )
        if findings:
            lines = "\n".join(str(f) for f in findings)
            raise AnalysisError(
                f"task graph failed message-protocol analysis "
                f"({len(findings)} finding(s)):\n{lines}"
            )
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX
            raise EngineError(
                "the proc engine requires the 'fork' start method "
                "(workers inherit shared-memory views instead of "
                "pickling panels)"
            ) from exc

        # Flatten the graph once: integer task ids index every per-task
        # array, and the completion messages are exactly these ids.
        task_list = sorted(graph.tasks())
        task_index = {t: i for i, t in enumerate(task_list)}
        succ_idx = [
            [task_index[s] for s in graph.successors(t)] for t in task_list
        ]
        indeg = [graph.in_degree(t) for t in task_list]
        owner = [task_owner(mapping, t) for t in task_list]
        notify = _notify_lists(succ_idx, owner, self.n_workers)

        arena = SharedArena(engine.data.layout)
        # One pipe per rank for completion messages (hot path; see
        # _worker_main), one queue for the low-traffic control reports.
        pipe_pairs = [ctx.Pipe(duplex=False) for _ in range(self.n_workers)]
        inboxes = [recv for recv, _ in pipe_pairs]
        outboxes = [send for _, send in pipe_pairs]
        ctrl = ctx.Queue()
        procs = [
            ctx.Process(
                target=_worker_main,
                args=(
                    rank,
                    engine,
                    arena,
                    task_list,
                    succ_idx,
                    owner,
                    indeg,
                    notify,
                    inboxes,
                    outboxes,
                    ctrl,
                    fault_hook,
                ),
                daemon=True,
            )
            for rank in range(self.n_workers)
        ]
        for p in procs:
            p.start()
        self._state = {
            "graph": graph,
            "bp": engine.bp,
            "mapping": mapping,
            "mapping_key": mapping_key(mapping),
            "fault_hook": fault_hook,
            # Workers inherit the engine (sanitizer included) at fork
            # time, so toggling sanitization forces a rebind.
            "sanitized": engine.sanitizer is not None,
            "arena": arena,
            "inboxes": inboxes,
            "outboxes": outboxes,
            "ctrl": ctrl,
            "procs": procs,
        }
        return self._state

    def _teardown(self, abort: bool = False) -> None:
        """Quit (or terminate) the workers, drain every channel, destroy
        the arena. Idempotent; called with the lock held."""
        st = self._state
        if st is None:
            return
        self._state = None
        try:
            if abort:
                _abort_pool(
                    st["procs"], st["inboxes"], st["outboxes"], st["ctrl"]
                )
            else:
                quit_word = _MSG.pack(_QUIT)
                for conn in st["outboxes"]:
                    try:
                        conn.send_bytes(quit_word)
                    except (OSError, BrokenPipeError):
                        pass  # worker already gone
                for p in st["procs"]:
                    p.join(timeout=5.0)
                if any(p.is_alive() for p in st["procs"]):
                    # pragma: no cover - a parked worker refused QUIT
                    _abort_pool(
                        st["procs"],
                        st["inboxes"],
                        st["outboxes"],
                        st["ctrl"],
                    )
                else:
                    for conn in (*st["inboxes"], *st["outboxes"]):
                        try:
                            conn.close()
                        except OSError:  # pragma: no cover
                            pass
        finally:
            st["arena"].destroy()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def factorize(
        self,
        engine: LUFactorization,
        graph: TaskGraph,
        *,
        mapping: "np.ndarray | GridMapping | None" = None,
        metrics: Any = None,
        tracer: Any = None,
        _fault_hook: Any = None,
    ) -> ProcStats:
        """Run one factorization on the pool (binding or rebinding it if
        this plan differs from the bound one); same contract as
        :func:`proc_factorize`."""
        from repro.obs.trace import Tracer
        from repro.parallel.mapping import blocked_mapping
        from repro.parallel.two_d import is_2d_graph

        with self._lock:
            if self._closed:
                raise EngineError("ProcPool is closed")
            bp = engine.bp
            if mapping is None:
                if is_2d_graph(graph):
                    # 2-D graphs place by block, not column: the
                    # most-square grid is the layout the simulator scores.
                    mapping = GridMapping.for_workers(self.n_workers)
                else:
                    # Contiguous block ranges, not the simulator's cyclic
                    # default: most dependence edges stay rank-local,
                    # which cuts completion messages ~3x on the paper
                    # matrices — the dominant cost of a *process* pool,
                    # where every message is a pipe syscall rather than a
                    # queue append.
                    mapping = blocked_mapping(bp.n_blocks, self.n_workers)
            if not hasattr(mapping, "owner_of"):
                mapping = np.asarray(mapping, dtype=np.int64)
            st = self._state
            # The plan key is object identity of the graph and block
            # pattern: every engine built from one symbolic plan shares
            # them (layouts may be rebuilt per engine, but a layout is a
            # pure function of the pattern, so bp identity suffices).
            # Mappings compare by value (1-D array bytes or grid shape).
            if (
                st is None
                or st["graph"] is not graph
                or st["bp"] is not bp
                or st["fault_hook"] is not _fault_hook
                or st["mapping_key"] != mapping_key(mapping)
                or st["sanitized"] != (engine.sanitizer is not None)
            ):
                self._teardown()
                st = self._bind(engine, graph, mapping, _fault_hook)
            arena = st["arena"]
            # Copy-in must complete before any GO goes out: a worker only
            # sees peer completion messages after some peer received GO,
            # so no panel is read before it holds this run's values (and
            # no pivot slot before it is reset to "F(k) has not run").
            arena.values[...] = engine.data.values
            arena.pivot_ids[...] = engine.data.pivot_ids
            tr = tracer if tracer is not None else Tracer(enabled=False)
            stats_by_rank: dict[int, dict] = {}
            map_label = (
                f"2d:{mapping.pr}x{mapping.pc}"
                if isinstance(mapping, GridMapping)
                else "1d"
            )
            if metrics is not None and isinstance(mapping, GridMapping):
                # Encoded pr*1000 + pc (gauges are scalar): 2004 = 2x4.
                metrics.gauge("factor.grid_shape").set(
                    mapping.pr * 1000 + mapping.pc
                )
            with tr.span(
                "engine.proc", n_workers=self.n_workers, mapping=map_label
            ) as span:
                t_start = time.perf_counter()
                go_word = _MSG.pack(_GO)
                try:
                    try:
                        for conn in st["outboxes"]:
                            conn.send_bytes(go_word)
                    except OSError as exc:
                        raise EngineError(
                            "a worker process died between "
                            "factorizations; pool terminated"
                        ) from exc
                    _monitor(st["procs"], st["ctrl"], stats_by_rank)
                except BaseException:
                    self._teardown(abort=True)
                    raise
                makespan = time.perf_counter() - t_start
                _gather(engine, arena, stats_by_rank)
                if engine.sanitizer is not None:
                    for s in stats_by_rank.values():
                        payload = s.get("sanitize")
                        if payload is not None:
                            engine.sanitizer.merge_run(payload)
                stats = ProcStats(
                    n_procs=self.n_workers,
                    n_tasks=sum(
                        s["n_tasks"] for s in stats_by_rank.values()
                    ),
                    n_messages=sum(
                        s["n_messages"] for s in stats_by_rank.values()
                    ),
                    message_bytes=sum(
                        s["message_bytes"] for s in stats_by_rank.values()
                    ),
                    busy_seconds=sum(
                        s["busy"] for s in stats_by_rank.values()
                    ),
                    idle_seconds=sum(
                        s["idle"] for s in stats_by_rank.values()
                    ),
                    makespan_seconds=makespan,
                    per_rank_tasks=[
                        stats_by_rank[r]["n_tasks"]
                        for r in range(self.n_workers)
                    ],
                )
                span.set(
                    makespan=stats.makespan_seconds,
                    n_messages=stats.n_messages,
                    efficiency=stats.efficiency,
                )
            if metrics is not None:
                stats.record_metrics(metrics)
            return stats

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._teardown()
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ProcPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

"""Multi-process execution over a shared-memory panel arena.

This module is **execution**, not simulation: it factorizes for real on a
pool of worker *processes*, escaping the GIL that bounds
:mod:`repro.parallel.threads`. It differs from the threaded engine in one
thing only — where a unit's body runs:

* **One shared arena.** The panel store's two buffers live in a single
  ``multiprocessing.shared_memory`` segment sized from the
  :class:`~repro.numeric.blockdata.BlockLayout`. Workers are forked from
  the parent and attach their store to the inherited mapping, so panel
  data never crosses a pipe; the parent copies each run's values in
  before the first unit goes out and copies the factors back after.
* **One release loop.** The parent runs the threaded engine's scheduler
  (:func:`repro.parallel.threads._run_pool`) over the same units — block
  steps released bottom-up over the block eforest, or the tasks of a
  graph (2-D and sanitized runs). Pool thread ``r`` sends each unit it
  takes to worker ``r`` as four integers and waits for the reply, so
  placement is whichever worker is free, exactly as on threads.
* **Warm pools.** The arena and the fork depend only on the block pattern,
  so :class:`ProcPool` binds them once and parked workers serve repeated
  refactorizations; :func:`proc_factorize` is the one-shot wrapper.

The factors are bitwise identical to the sequential reference for the
same reason as on threads: the loop admits only schedules the dependence
structure orders. A worker that dies (signal, ``os._exit``) closes its
reply pipe, and the pool thread waiting on it raises
:class:`~repro.util.errors.EngineError`; an in-worker exception comes back
with its original type. Either way the workers are terminated, the pipes
closed and the arena destroyed before the error reaches the caller.
"""

from __future__ import annotations

import multiprocessing
import pickle
import struct
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.numeric.blockdata import BlockLayout
from repro.numeric.factor import LUFactorization
from repro.parallel.engine import record_engine_metrics
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.tasks import Task
from repro.util.errors import EngineError

_FLOAT = np.dtype(np.float64)
_INT = np.dtype(np.int64)

# Unit wire format: four little-endian int64s (code, k, i, j). Code 0 is
# block step k; code 1 + _KINDS.index(kind) is a task, 1-D when i < 0 and
# 2-D otherwise. Negative codes are control words: _END closes a run (the
# worker answers with its report), _QUIT makes the worker return.
_UNIT = struct.Struct("<4q")
_KINDS = ("F", "U", "SL", "SU", "UP")
_END = -1
_QUIT = -2


class SharedArena:
    """One shared-memory segment holding the panel store's two buffers,
    ``[ values | pivot_ids ]``, which a worker hands to
    ``BlockColumnData.attach`` and addresses as it would private memory.

    Only the creating process may :meth:`destroy` the segment; forked
    children inherit the mapping and simply exit.
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
        """Release the mapping and unlink the segment (idempotent; a no-op
        in a forked child, so it never vanishes under live siblings)."""
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
    :class:`repro.parallel.engine.EngineResult` where they overlap).

    ``n_tasks`` counts the 1-D or 2-D tasks the run covered, in steps or
    one by one; ``per_rank_units`` the units each worker ran. Messages are
    the dispatch and the reply of every unit."""

    n_procs: int
    n_tasks: int
    n_messages: int
    message_bytes: int
    busy_seconds: float
    idle_seconds: float
    makespan_seconds: float
    per_rank_units: list[int] = field(default_factory=list)

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


def _encode(unit: Any) -> bytes:
    if isinstance(unit, int):
        return _UNIT.pack(0, unit, 0, 0)
    return _UNIT.pack(
        1 + _KINDS.index(unit.kind), unit.k, getattr(unit, "i", -1), unit.j
    )


def _worker_main(
    rank: int, engine: LUFactorization, arena: SharedArena, conn: Any, fault_hook: Any
) -> None:
    """Body of one persistent worker process (entered right after fork).

    Runs the units the parent's pool thread ``rank`` sends, replying with
    an empty message after each, until ``_END`` closes the run; then sends
    its report and waits for the next run. ``_QUIT`` makes it return. An
    exception is sent back pickled (with its text and traceback, should it
    not unpickle) and ends the process.
    """
    from repro.parallel.two_d import Task2D

    engine.metrics = None  # a forked registry would count into the void
    engine.data.attach(arena.values, arena.pivot_ids)
    # The forked sanitizer (or None) checks the containment of this
    # worker's accesses. Happens-before is the parent's to check: it
    # releases the units, and this worker sees only the ones it ran.
    san = engine.sanitizer
    if san is not None:
        san.set_graph(None)
    ls = engine.lazy_stats

    def counts() -> tuple:
        return (engine.n_tasks, ls.n_updates_skipped, ls.n_updates_run,
                ls.flops_saved, ls.flops_spent)  # fmt: skip

    try:
        while True:
            engine.panel_facts.clear()  # left by the previous run
            engine.done.clear()
            if san is not None:
                san.reset_run()
            counts0, n_units, busy = counts(), 0, 0.0
            while True:
                code, k, i, j = _UNIT.unpack(conn.recv_bytes())
                if code < 0:
                    break
                t0 = time.perf_counter()
                unit: Any = k
                if code == 0:
                    engine.step(k)
                else:
                    kind = _KINDS[code - 1]
                    unit = Task(kind, k, j) if i < 0 else Task2D(kind, k, i, j)
                    engine.run_task(unit)
                busy += time.perf_counter() - t0
                n_units += 1
                if fault_hook is not None:
                    fault_hook(rank, unit)
                conn.send_bytes(b"")
            if code == _QUIT:
                return
            report = {
                "n_units": n_units,
                "busy": busy,
                # Per-run deltas: the engine accumulates over the worker's
                # lifetime, the parent wants this run only.
                "counts": [b - a for a, b in zip(counts0, counts())],
                "sanitize": san.export_run() if san is not None else None,
            }
            conn.send_bytes(pickle.dumps(report))
    except BaseException as exc:
        try:
            payload = pickle.dumps(exc)
        except Exception:
            payload = None
        conn.send_bytes(
            pickle.dumps(("error", payload, repr(exc), traceback.format_exc()))
        )


def _request(rank: int, conn: Any, word: bytes) -> Any:
    """Send ``word`` to worker ``rank`` and return its unpickled reply
    (``None`` for a unit's empty one). A worker that died — killed,
    ``os._exit``, segfault — closed its end of the pipe, which raises
    :class:`EngineError`; an exception it sent back is re-raised, with its
    original type when that round-trips through pickle."""
    try:
        conn.send_bytes(word)
        data = conn.recv_bytes()
    except (EOFError, OSError) as exc:
        raise EngineError(
            f"worker process rank {rank} died without reporting; pool terminated"
        ) from exc
    reply = pickle.loads(data) if data else None
    if isinstance(reply, tuple):
        _, payload, exc_repr, tb_text = reply
        try:
            exc = pickle.loads(payload) if payload is not None else None
        except Exception:  # exception type not importable here
            exc = None
        if isinstance(exc, BaseException):
            raise exc
        raise EngineError(f"worker rank {rank} failed: {exc_repr}\n{tb_text}")
    return reply


def proc_factorize(
    engine: LUFactorization,
    graph: "TaskGraph | None",
    n_workers: int = 4,
    *,
    metrics: Any = None,
    tracer: Any = None,
    _fault_hook: Any = None,
) -> ProcStats:
    """Factorize on ``engine`` with ``n_workers`` worker *processes* — block
    steps over the block eforest (``graph=None``) or the tasks of
    ``graph`` — and return run statistics.

    Drop-in alternative to :func:`repro.parallel.threads.threaded_factorize`,
    with the same gate on a graph (:func:`repro.parallel.threads.release_plan`).
    ``metrics`` receives the ``engine.*`` aggregates; under ``tracer`` the
    run executes inside an ``engine.proc`` span. ``_fault_hook(rank,
    unit)`` is called in the worker after each unit (fault injection).
    A dead worker, or a platform without ``fork``, raises
    :class:`~repro.util.errors.EngineError`. The transient
    :class:`ProcPool` is torn down before returning; callers that
    factorize repeatedly should hold a pool instead.
    """
    pool = ProcPool(n_workers)
    try:
        return pool.factorize(
            engine, graph, metrics=metrics, tracer=tracer, _fault_hook=_fault_hook
        )
    finally:
        pool.close()


class ProcPool:
    """A persistent, shareable pool of worker processes.

    The pool *binds* to a block pattern on first use — it allocates the
    arena and forks workers that park on their pipes — and each later
    :meth:`factorize` against that pattern only copies the new values in,
    runs the release loop and gathers the factors back. A different block
    pattern, fault hook or sanitizer presence rebinds; a graph, if any,
    travels unit by unit.

    :class:`repro.serve.service.SolverService` shares one pool across its
    serving threads: one lock serializes factorizations, so at most one
    arena and one set of workers exist at a time. ``close()`` quits the
    workers and unlinks the arena, after which use raises
    :class:`EngineError`. A worker failure tears the pool down too (abort
    hygiene); the next call simply rebinds.
    """

    def __init__(self, n_workers: int = 4) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._lock = threading.Lock()
        self._closed = False
        self._state: dict | None = None

    def _bind(self, engine: LUFactorization, fault_hook: Any) -> dict:
        """Allocate the arena and fork the workers (lock held)."""
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX
            raise EngineError(
                "the proc engine requires the 'fork' start method (workers "
                "inherit shared-memory views instead of pickling panels)"
            ) from exc
        arena = SharedArena(engine.data.layout)
        conns: list[Any] = []
        procs: list[Any] = []
        for rank in range(self.n_workers):
            mine, theirs = ctx.Pipe()
            p = ctx.Process(
                target=_worker_main,
                args=(rank, engine, arena, theirs, fault_hook),
                daemon=True,
            )
            p.start()
            # Only the worker holds its end now (later forks do not
            # inherit it), so its death reads as EOF on ours.
            theirs.close()
            conns.append(mine)
            procs.append(p)
        self._state = {
            "bp": engine.bp,
            "fault_hook": fault_hook,
            # Workers inherit the engine (sanitizer included) at fork
            # time, so toggling sanitization forces a rebind.
            "sanitized": engine.sanitizer is not None,
            "arena": arena,
            "conns": conns,
            "procs": procs,
        }
        return self._state

    def _teardown(self, abort: bool = False) -> None:
        """Quit the workers (terminate them on ``abort``), close every
        pipe unread and destroy the arena. Idempotent; lock held."""
        st = self._state
        if st is None:
            return
        self._state = None
        try:
            if not abort:
                for conn in st["conns"]:
                    try:
                        conn.send_bytes(_UNIT.pack(_QUIT, 0, 0, 0))
                    except OSError:
                        pass  # worker already gone
                for p in st["procs"]:
                    p.join(timeout=5.0)
            for p in st["procs"]:
                if p.is_alive():
                    p.terminate()
                p.join(timeout=5.0)
                if p.is_alive():  # pragma: no cover - terminate() refused
                    p.kill()
                    p.join(timeout=5.0)
            for conn in st["conns"]:
                conn.close()
        finally:
            st["arena"].destroy()

    def factorize(
        self,
        engine: LUFactorization,
        graph: "TaskGraph | None" = None,
        *,
        metrics: Any = None,
        tracer: Any = None,
        _fault_hook: Any = None,
    ) -> ProcStats:
        """Run one factorization on the pool (binding or rebinding it if
        this block pattern differs from the bound one); same contract as
        :func:`proc_factorize`."""
        from repro.obs.trace import Tracer
        from repro.parallel.threads import _run_pool, release_plan

        n_preds, successors = release_plan(engine, graph)
        san = engine.sanitizer
        with self._lock:
            if self._closed:
                raise EngineError("ProcPool is closed")
            st = self._state
            # Engines built from one plan share its block pattern, and a
            # layout is a pure function of it, so bp identity suffices.
            if (
                st is None
                or st["bp"] is not engine.bp
                or st["fault_hook"] is not _fault_hook
                or st["sanitized"] != (san is not None)
            ):
                self._teardown()
                st = self._bind(engine, _fault_hook)
            arena, conns = st["arena"], st["conns"]
            # Copy-in completes before the first unit goes out, so no panel
            # is read before it holds this run's values (and no pivot slot
            # before it is reset to "F(k) has not run").
            arena.values[...] = engine.data.values
            arena.pivot_ids[...] = engine.data.pivot_ids

            def runner(rank: int) -> Any:
                def run(unit: Any) -> None:
                    # The parent releases the units, so it checks
                    # happens-before; the worker checks containment.
                    if san is not None:
                        san.begin(unit)
                    _request(rank, conns[rank], _encode(unit))
                    if san is not None:
                        san.end(unit)

                return run

            tr = tracer if tracer is not None else Tracer(enabled=False)
            with tr.span("engine.proc", n_workers=self.n_workers) as span:
                t_start = time.perf_counter()
                try:
                    runners = [runner(r) for r in range(self.n_workers)]
                    _run_pool(runners, n_preds, successors, None)
                    end = _UNIT.pack(_END, 0, 0, 0)
                    reports = [_request(r, c, end) for r, c in enumerate(conns)]
                except BaseException:
                    self._teardown(abort=True)
                    raise
                stats = self._gather(
                    engine, arena, reports, time.perf_counter() - t_start
                )
                span.set(
                    makespan=stats.makespan_seconds,
                    n_messages=stats.n_messages,
                    efficiency=stats.efficiency,
                )
            if metrics is not None:
                stats.record_metrics(metrics)
            return stats

    def _gather(
        self,
        engine: LUFactorization,
        arena: SharedArena,
        reports: list[dict],
        makespan: float,
    ) -> ProcStats:
        """Copy the arena back into the parent engine's store, recompose the
        row permutation from the pivot slots, and fold in the workers'
        reports."""
        engine.data.values[...] = arena.values
        engine.data.pivot_ids[...] = arena.pivot_ids
        engine.recompose_orig_at()
        for r in reports:
            engine.tally(*r["counts"])
            if r["sanitize"] is not None and engine.sanitizer is not None:
                engine.sanitizer.merge_run(r["sanitize"])
        units = [r["n_units"] for r in reports]
        busy = sum(r["busy"] for r in reports)
        return ProcStats(
            n_procs=self.n_workers,
            n_tasks=sum(r["counts"][0] for r in reports),
            n_messages=2 * sum(units),
            message_bytes=_UNIT.size * sum(units),
            busy_seconds=busy,
            idle_seconds=max(0.0, self.n_workers * makespan - busy),
            makespan_seconds=makespan,
            per_rank_units=units,
        )

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

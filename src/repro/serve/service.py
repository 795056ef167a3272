"""A long-lived, batching solver service over the plan cache.

:class:`SolverService` is the serving shape the ROADMAP's north star asks
for: a worker pool that accepts ``solve(A, b)`` requests, amortizes the
paper's static symbolic analysis through a shared :class:`PlanCache`, and
applies three classic serving disciplines:

* **backpressure** — the request queue is strictly bounded; a submit
  beyond capacity is rejected immediately with
  :class:`~repro.util.errors.ServiceOverloadedError` (the caller decides
  whether to retry, shed, or block — the service never buffers unboundedly);
* **deadlines** — each request may carry a deadline; requests whose
  deadline has passed by the time a worker picks them up are cancelled
  with :class:`~repro.util.errors.DeadlineExceededError` without doing
  any numeric work;
* **batching** — requests for the *same matrix* (same pattern
  fingerprint, same options, same value digest) share one numeric
  refactorization and blocked multi-RHS triangular solves, which is
  exactly where the multi-column RHS support in the triangular kernels
  pays off. The batch stays *open* while its factorization runs: the
  matrix is *in flight*, no other worker starts on it, and a same-matrix
  request that arrives meanwhile is served by the owning worker from the
  factors it is about to have (docs/serving.md, "Flights").

Set ``n_workers=0`` for a deterministic, single-threaded service driven by
:meth:`SolverService.process_once` — the mode the tests use to pin queue
and deadline semantics without sleeping on real threads.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

import numpy as np

from repro.numeric.solver import SolverOptions
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve.cache import PlanCache
from repro.serve.fingerprint import fingerprint, values_digest
from repro.serve.refactor import refactorize_with_plan
from repro.sparse.csc import CSCMatrix
from repro.util.errors import (
    DeadlineExceededError,
    DispatchError,
    NonFiniteInputError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
)

#: Latency histogram bounds (seconds): sub-millisecond through one minute.
LATENCY_BOUNDS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Batch-size histogram bounds (requests per factorization).
BATCH_BOUNDS: tuple[float, ...] = (1, 2, 4, 8, 16, 32)

#: Queue-wait histogram bounds (seconds): a claim by an idle worker takes
#: tens of microseconds, a wait behind a cold plan build up to seconds.
QUEUE_WAIT_BOUNDS: tuple[float, ...] = (
    0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0, 30.0,
)


class PendingResult:
    """Future-like handle for one submitted request."""

    __slots__ = ("_event", "_value", "_error", "completed_at")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        #: ``time.monotonic()`` at completion (set just before the event),
        #: so benchmark drivers can compute exact per-request latencies.
        self.completed_at: Optional[float] = None

    def _set_result(self, value: np.ndarray) -> None:
        self._value = value
        self.completed_at = time.monotonic()
        self._event.set()

    def _set_error(self, err: BaseException) -> None:
        self._error = err
        self.completed_at = time.monotonic()
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the request finishes; re-raises its error if any."""
        if not self._event.wait(timeout):
            raise TimeoutError("result not ready within timeout")
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value


class _Request:
    """Internal queue entry (matrix + RHS + options + identity + bookkeeping)."""

    __slots__ = (
        "a", "b", "options", "fp", "batch_key", "deadline", "enqueued_at",
        "pending", "n_rhs", "b_ndim",
    )

    def __init__(self, a, b, options, fp, batch_key, deadline, enqueued_at, pending):
        self.a = a
        self.b = b  # always 2-D (n, k) internally
        self.options = options  # the request's SolverOptions, as submitted
        self.fp = fp  # fingerprint(a), hashed once at submit
        self.batch_key = batch_key
        self.deadline = deadline  # absolute monotonic time or None
        self.enqueued_at = enqueued_at
        self.pending = pending
        self.n_rhs = b.shape[1]
        self.b_ndim = 1  # original ndim, restored on completion


class SolverService:
    """Batched, deadline-aware sparse-LU solving over cached plans.

    Parameters
    ----------
    n_workers:
        Worker threads. ``0`` creates no threads; drive the queue manually
        with :meth:`process_once` (deterministic test mode).
    max_queue:
        Queue capacity; submits beyond it raise ``ServiceOverloadedError``.
    max_batch:
        Most requests merged into one blocked solve. A factorization
        serves as many solves as it takes to empty the queue of requests
        for its matrix.
    cache:
        Shared :class:`PlanCache`; one is created (with this service's
        metrics registry) when omitted. A plan-cache miss builds the plan
        from the request's own options.
    metrics:
        Registry for the ``service.*`` instruments; shared with the
        default-constructed cache.
    default_deadline_s:
        Deadline applied to requests that do not set one (``None`` = no
        deadline).
    options:
        Default :class:`SolverOptions` for requests that do not override.

    Batches factorize with the sequential engine, whatever
    ``$REPRO_ENGINE`` says: the service's worker threads are its
    parallelism, and it forks no processes.
    """

    def __init__(
        self,
        *,
        n_workers: int = 2,
        max_queue: int = 64,
        max_batch: int = 8,
        cache: Optional[PlanCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        default_deadline_s: Optional[float] = None,
        options: Optional[SolverOptions] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if n_workers < 0:
            raise DispatchError(f"n_workers must be >= 0, got {n_workers}")
        if max_queue < 1:
            raise DispatchError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise DispatchError(f"max_batch must be >= 1, got {max_batch}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = cache if cache is not None else PlanCache(metrics=self.metrics)
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.default_deadline_s = default_deadline_s
        self.options = options or SolverOptions()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)

        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._pending: list[_Request] = []
        #: Batch keys being factorized or solved for right now. Queued
        #: requests with one of these keys belong to the worker that owns
        #: the flight; nobody else takes them.
        self._in_flight: set[tuple] = set()
        self._closed = False

        self._m_requests = self.metrics.counter("service.requests")
        self._m_completed = self.metrics.counter("service.completed")
        self._m_rejected = self.metrics.counter("service.rejected")
        self._m_expired = self.metrics.counter("service.expired")
        self._m_failed = self.metrics.counter("service.failed")
        self._m_batches = self.metrics.counter("service.batches")
        self._m_joined = self.metrics.counter("service.joined")
        self._m_queue_depth = self.metrics.gauge("service.queue_depth")
        self._h_batch = self.metrics.histogram(
            "service.batch_size", unit="requests", bounds=BATCH_BOUNDS
        )
        self._h_latency = self.metrics.histogram(
            "service.latency", unit="s", bounds=LATENCY_BOUNDS
        )
        self._h_n_rhs = self.metrics.histogram(
            "solve.n_rhs", unit="cols", bounds=BATCH_BOUNDS
        )
        self._h_queue_wait = self.metrics.histogram(
            "service.queue_wait", unit="s", bounds=QUEUE_WAIT_BOUNDS
        )

        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(n_workers)
        ]
        for t in self._workers:
            t.start()

    # ------------------------------------------------------------------
    def submit(
        self,
        a: CSCMatrix,
        b: np.ndarray,
        *,
        options: Optional[SolverOptions] = None,
        deadline_s: Optional[float] = None,
    ) -> PendingResult:
        """Enqueue ``solve(a, b)``; returns a :class:`PendingResult`.

        Raises ``ServiceOverloadedError`` when the queue is at capacity,
        ``ServiceClosedError`` after :meth:`close`, and
        ``NonFiniteInputError`` when ``a`` or ``b`` holds a NaN or an
        infinity — all *synchronously*, so the caller always learns
        immediately whether the request was accepted, and a matrix that
        cannot be factorized never becomes a key other requests wait on.
        """
        opts = options or self.options
        if not a.is_square or not a.has_values:
            raise ShapeError("service requires a square matrix with values")
        b = np.asarray(b, dtype=np.float64)
        orig_ndim = b.ndim
        if b.ndim == 1:
            b = b[:, None]
        if b.ndim != 2 or b.shape[0] != a.n_cols:
            raise ShapeError(
                f"rhs has shape {np.shape(b)}, expected ({a.n_cols},) or "
                f"({a.n_cols}, k)"
            )
        if not (np.isfinite(a.data).all() and np.isfinite(b).all()):
            raise NonFiniteInputError(
                "matrix values and right-hand sides must be finite (no NaN/Inf)"
            )
        # Identity work (hashing) happens outside the lock.
        fp = fingerprint(a)
        batch_key = (fp.key, opts.symbolic_key(), values_digest(a))
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        now = time.monotonic()
        deadline = now + deadline_s if deadline_s is not None else None
        pending = PendingResult()
        req = _Request(a, b, opts, fp, batch_key, deadline, now, pending)
        req.b_ndim = orig_ndim

        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if len(self._pending) >= self.max_queue:
                self._m_rejected.inc()
                raise ServiceOverloadedError(
                    f"queue full ({self.max_queue} pending requests); retry later"
                )
            self._pending.append(req)
            self._m_requests.inc()
            self._m_queue_depth.set(len(self._pending))
            self._work_ready.notify()
        return pending

    def solve(
        self,
        a: CSCMatrix,
        b: np.ndarray,
        *,
        options: Optional[SolverOptions] = None,
        deadline_s: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Blocking convenience: :meth:`submit` + wait for the result."""
        pending = self.submit(a, b, options=options, deadline_s=deadline_s)
        if not self._workers:
            while not pending.done and self.process_once():
                pass
        return pending.result(timeout)

    # ------------------------------------------------------------------
    def _claim_locked(self, key: tuple, room: int, now: float):
        """Pop up to ``room`` queued requests for ``key``, oldest first.

        Caller holds the lock. Returns ``(claimed, n_expired)``: requests
        whose deadline has already passed are cancelled here and counted —
        the claim is the last moment lateness can be detected before
        numeric work is spent on the request.
        """
        claimed: list[_Request] = []
        n_expired = 0
        i = 0
        while i < len(self._pending) and len(claimed) < room:
            req = self._pending[i]
            if req.batch_key != key:
                i += 1
                continue
            self._pending.pop(i)
            if req.deadline is not None and now > req.deadline:
                n_expired += 1
                self._m_expired.inc()
                req.pending._set_error(
                    DeadlineExceededError(
                        f"deadline exceeded after {now - req.enqueued_at:.3f}s "
                        "in queue"
                    )
                )
            else:
                self._h_queue_wait.observe(now - req.enqueued_at)
                claimed.append(req)
        self._m_queue_depth.set(len(self._pending))
        return claimed, n_expired

    def _take_batch_locked(self):
        """Open a flight: the oldest request whose matrix is not in flight
        plus up to ``max_batch - 1`` batchmates, as ``(batch, n_expired)``.

        Caller holds the lock. Requests for a key in flight are left for
        the worker that owns it; an empty batch means nothing is claimable
        now. The batch's key is in flight from here until
        :meth:`_release_locked`.
        """
        now = time.monotonic()
        batch: list[_Request] = []
        n_expired = 0
        i = 0
        while i < len(self._pending) and not batch:
            key = self._pending[i].batch_key
            if key in self._in_flight:
                i += 1
                continue
            # Pops at least the request at ``i`` (served or expired).
            batch, expired = self._claim_locked(key, self.max_batch, now)
            n_expired += expired
        if batch:
            self._in_flight.add(batch[0].batch_key)
        return batch, n_expired

    def _release_locked(self, key: tuple) -> None:
        """End ``key``'s flight (idempotent) and wake the sleeping workers:
        requests for it that are still queued are claimable again, and a
        closed service may have nothing left to wait for."""
        if key in self._in_flight:
            self._in_flight.remove(key)
            self._work_ready.notify_all()

    def _factorize(self, head: _Request):
        """Plan lookup (or build) and numeric factorization of one matrix."""
        # The batch key holds the options' symbolic key, so every request
        # of the batch shares the head's symbolic options; ``symbolic_params``
        # (outside the key) comes from the head's own options.
        plan = self.cache.get_or_build(
            head.a, head.options, tracer=self.tracer, fp=head.fp
        )
        return refactorize_with_plan(
            plan,
            head.a,
            tracer=self.tracer,
            check_pattern=False,
            engine="sequential",
        )

    def _solve_round(self, fac, batch: list[_Request]) -> None:
        """One blocked multi-RHS solve; completes every request of ``batch``."""
        rhs = batch[0].b if len(batch) == 1 else np.hstack([req.b for req in batch])
        x = fac.solve(rhs)
        self._h_n_rhs.observe(rhs.shape[1])
        now = time.monotonic()
        col = 0
        for req in batch:
            xi = x[:, col : col + req.n_rhs]
            col += req.n_rhs
            if req.b_ndim == 1:
                xi = xi[:, 0]
            self._h_latency.observe(now - req.enqueued_at)
            self._m_completed.inc()
            req.pending._set_result(np.ascontiguousarray(xi))

    def _process_batch(self, batch: list[_Request]) -> int:
        """One flight: factorize the batch's matrix once, then solve for the
        batch and for every same-matrix request that was queued meanwhile.

        The key of ``batch`` is in flight (:meth:`_take_batch_locked`).
        Once the factors exist the late joiners are claimed into the same
        blocked solve, at most ``max_batch`` requests per solve, and the
        rounds repeat until a claim comes back empty; the key is released
        under that same lock hold, so no request can slip between "none
        queued" and "no longer in flight". An error goes to the requests
        of the step that raised it — a factorization error to the opening
        batch alone — and releases the key: twins still queued then open a
        flight of their own. Returns the number of requests resolved.
        """
        key = batch[0].batch_key
        resolved = len(batch)
        n_served = n_joined = n_solves = 0
        with self.tracer.span("service.batch") as span:
            try:
                fac = self._factorize(batch[0])
                self._m_batches.inc()
                # ``batch`` is the round at hand: the opening batch, which
                # may have room left for joiners, then joiners alone.
                while True:
                    with self._work_ready:
                        late, n_expired = self._claim_locked(
                            key, self.max_batch - len(batch), time.monotonic()
                        )
                        resolved += len(late) + n_expired
                        if not batch and not late:
                            self._release_locked(key)
                            break
                    n_joined += len(late)
                    self._m_joined.inc(len(late))
                    batch = batch + late
                    self._solve_round(fac, batch)
                    n_served += len(batch)
                    n_solves += 1
                    batch = []
            except Exception as err:  # propagate to every caller of the step
                span.set(error=type(err).__name__)
                for req in batch:
                    if not req.pending.done:
                        self._m_failed.inc()
                        req.pending._set_error(err)
            finally:
                with self._work_ready:
                    self._release_locked(key)
                if n_solves:
                    self._h_batch.observe(n_served)
                span.set(n_requests=n_served, n_joined=n_joined, n_solves=n_solves)
        return resolved

    def process_once(self) -> int:
        """Run one flight synchronously (no worker needed): one
        factorization and every solve it serves.

        Returns the number of requests *resolved* (completed, failed, or
        deadline-cancelled); 0 when the queue is empty. The deterministic
        driver for ``n_workers=0`` services.
        """
        with self._lock:
            batch, resolved = self._take_batch_locked()
        if batch:
            resolved += self._process_batch(batch)
        return resolved

    def _worker_loop(self) -> None:
        while True:
            with self._work_ready:
                batch, _ = self._take_batch_locked()
                while not batch:
                    # Nothing claimable: the queue is empty, or all of it
                    # belongs to flights other workers own.
                    if self._closed and not self._pending:
                        return
                    self._work_ready.wait()
                    batch, _ = self._take_batch_locked()
            self._process_batch(batch)

    # ------------------------------------------------------------------
    def close(self, *, drain: bool = True) -> None:
        """Stop accepting requests; by default let workers drain the queue.

        With ``drain=False`` queued-but-unstarted requests fail with
        ``ServiceClosedError``. Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                for req in self._pending:
                    req.pending._set_error(ServiceClosedError("service closed"))
                self._pending.clear()
                self._m_queue_depth.set(0)
            self._work_ready.notify_all()
        for t in self._workers:
            t.join(timeout=30.0)
        # n_workers=0: nobody drains; fail whatever is left.
        if not self._workers:
            with self._lock:
                for req in self._pending:
                    req.pending._set_error(ServiceClosedError("service closed"))
                self._pending.clear()
                self._m_queue_depth.set(0)

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def stats(self) -> dict:
        """Point-in-time service + cache counter snapshot."""
        return {
            "requests": int(self._m_requests.value),
            "completed": int(self._m_completed.value),
            "rejected": int(self._m_rejected.value),
            "expired": int(self._m_expired.value),
            "failed": int(self._m_failed.value),
            "batches": int(self._m_batches.value),
            "joined": int(self._m_joined.value),
            "queue_depth": self.queue_depth,
            "mean_batch_size": self._h_batch.mean,
            "cache": self.cache.stats(),
        }

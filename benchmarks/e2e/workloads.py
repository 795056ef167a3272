"""The four workloads: inputs from the seed, set-up, timed requests, checks.

Each workload drives only public entry points of ``repro`` and sees the
program from the outside: matrices and vectors in, solutions out. All are
closed loops (a client sends its next request only after the previous one
completed). README.md records why each workload is here.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.api import lu
from repro.serve import PlanCache, SolverService, build_plan, refactorize_with_plan
from repro.sparse import paper_matrix

#: A solve fails when its :func:`scaled_residual` exceeds this.
RESIDUAL_TOL = 1e-10
#: Columns of the multi-RHS solve against held factors (``resolve_s``).
N_RESOLVE_RHS = 16
#: Relative amplitude of the same-pattern value perturbations.
PERTURBATION = 0.1
#: A served request that takes longer than this counts as failed.
REQUEST_TIMEOUT_S = 60.0
#: Clients of a ``SolverService``.
N_CLIENTS = 2

# Stream tags: (seed, tag, index) names one independent random stream.
_COLD, _WARM, _HOT, _PAIR, _RESOLVE = range(5)


def rng_for(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def _matrix_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31 - 1))


def perturbed(a, rng: np.random.Generator):
    """New values on ``a``'s pattern: ``data · (1 + 0.1·u)``, u ~ U(−1, 1)."""
    return a.with_values(a.data * (1.0 + PERTURBATION * rng.uniform(-1.0, 1.0, a.nnz)))


def scaled_residual(a, x: np.ndarray, b: np.ndarray) -> float:
    """Worst column of ``‖Ax − b‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)``.

    Computed from the CSC arrays with NumPy alone, so the check does not
    lean on the code it checks.
    """
    cols = np.repeat(np.arange(a.n_cols), np.diff(a.indptr))
    norm_a = np.bincount(a.indices, weights=np.abs(a.data), minlength=a.n_rows).max()
    worst = 0.0
    for xc, bc in zip(np.atleast_2d(x.T), np.atleast_2d(b.T)):
        ax = np.bincount(a.indices, weights=a.data * xc[cols], minlength=a.n_rows)
        if not np.all(np.isfinite(xc)):
            return float("inf")
        scale = norm_a * np.abs(xc).max() + np.abs(bc).max()
        worst = max(worst, float(np.abs(ax - bc).max() / scale))
    return worst


def hash_inputs(hasher, a, b: np.ndarray) -> None:
    for arr in (a.indptr, a.indices, a.data, b):
        hasher.update(np.ascontiguousarray(arr).tobytes())


@dataclass
class Measured:
    """What one timed run produced."""

    op_latencies: list  # per operation: mean seconds of its requests
    request_latencies: list  # seconds of every single request
    window_s: float  # the timed windows the requests completed in, summed
    resolve_times: list  # seconds per 16-column solve against held factors
    failed: int  # requests and 16-column solves that failed
    detail: dict  # untimed diagnostics for the info line


def timed_resolve(held, a, seed: int, index: int):
    """One 16-column solve against ``held``: ``(seconds, failed)``."""
    rhs = rng_for(seed, _RESOLVE, index).standard_normal((a.n_cols, N_RESOLVE_RHS))
    t0 = time.perf_counter()
    x = held.solve(rhs)
    dt = time.perf_counter() - t0
    return dt, scaled_residual(a, x, rhs) > RESIDUAL_TOL


class Workload:
    """What ``worker.py`` and ``traced.py`` ask of a workload.

    Subclasses add ``name``, ``setup()`` (repeatable), ``measure(seconds,
    hasher) -> Measured`` and ``trace_slice() -> (pre-warmed matrices,
    [(op_id, a, b), ...])``.
    """

    #: Operations (or pairs) of the traced slice.
    trace_ops = 8
    #: Whether a traced request on a pattern seen before skips the symbolic
    #: stages, as the untraced requests of the workload do.
    reuses_plans = True

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick

    def teardown(self) -> None:
        """Release what ``setup()`` started; safe to call before it."""

    def check_invariants(self) -> None:
        """Raise if something the numbers rest on does not hold."""


class SingleClient(Workload):
    """One client; an operation is a list of requests run back to back."""

    #: One label per request of an operation.
    labels = ("request",)
    #: Operations always run, whatever ``--seconds`` says; their inputs are
    #: the ones the input hash covers.
    min_ops = 8

    def make_op(self, i: int) -> list:
        """The ``(a, b)`` requests of operation ``i``, a function of the seed."""
        raise NotImplementedError

    def solve(self, a, b: np.ndarray) -> np.ndarray:
        """One request; keeps its factors and ``a`` as ``self.held``."""
        raise NotImplementedError

    def prewarmed(self) -> list:
        """Matrices whose patterns set-up has already planned."""
        return []

    def run_op(self, requests: list):
        xs, times = [], []
        for a, b in requests:
            t0 = time.perf_counter()
            xs.append(self.solve(a, b))
            times.append(time.perf_counter() - t0)
        return xs, times

    def measure(self, seconds: float, hasher) -> Measured:
        op_latencies, resolves, failed, busy, i = [], [], 0, 0.0, 0
        by_label = {label: [] for label in self.labels}
        while i < self.min_ops or busy < seconds:
            requests = self.make_op(i)
            if i < self.min_ops:
                for a, b in requests:
                    hash_inputs(hasher, a, b)
            xs, times = self.run_op(requests)
            busy += sum(times)
            op_latencies.append(sum(times) / len(times))
            for label, dt in zip(self.labels, times):
                by_label[label].append(dt)
            failed += sum(
                scaled_residual(a, x, b) > RESIDUAL_TOL
                for (a, b), x in zip(requests, xs)
            )
            # Outside the request window, once per operation, so the
            # samples spread over the run like the request samples do.
            dt, bad = timed_resolve(*self.held, self.seed, i)
            resolves.append(dt)
            failed += bad
            i += 1
        detail = {
            f"{self.name}.{label}_s": statistics.median(times)
            for label, times in by_label.items()
        }
        every = [dt for times in by_label.values() for dt in times]
        return Measured(op_latencies, every, busy, resolves, failed, detail)

    def trace_slice(self):
        requests = [
            (i, a, b) for i in range(self.trace_ops) for a, b in self.make_op(i)
        ]
        return self.prewarmed(), requests


class ColdSweep(SingleClient):
    """Three cold ``lu(a)`` → ``solve(b)`` requests, one per pattern class.

    The reservoir and fluid patterns are drawn afresh for every sweep, so a
    run's median averages over patterns and depends little on the seed; the
    finite-element generator has one pattern and the seed moves its values.
    """

    name = "cold_sweep"
    labels = ("reservoir", "fluid", "fem")
    min_ops = 2
    trace_ops = 3
    reuses_plans = False  # every request is cold
    classes = (("sherman3", 0.30), ("lnsp3937", 0.40), ("goodwin", 0.15))
    quick_classes = (("sherman3", 0.03), ("lnsp3937", 0.05), ("goodwin", 0.02))

    def make_op(self, i: int) -> list:
        requests = []
        for c, (name, scale) in enumerate(
            self.quick_classes if self.quick else self.classes
        ):
            rng = rng_for(self.seed, _COLD, 3 * i + c)
            a = paper_matrix(name, scale=scale, seed=_matrix_seed(rng))
            requests.append((a, rng.standard_normal(a.n_cols)))
        return requests

    def setup(self) -> None:
        # One untimed sweep: first calls pay for lazy imports and caches.
        self.run_op(self.make_op(0))

    def solve(self, a, b: np.ndarray) -> np.ndarray:
        self.held = lu(a), a
        return self.held[0].solve(b)


class WarmRefactor(SingleClient):
    """New values on one fixed pattern: ``refactorize_with_plan`` + solve.

    The pattern is the library's default sherman3 analog at the ROADMAP
    baseline size, the same for every seed, because warm work depends on
    the pattern and the point of the workload is one pattern held fixed;
    the seed draws the values and right-hand sides.
    """

    name = "warm_refactor"
    engine = "sequential"

    def setup(self) -> None:
        self.a0 = paper_matrix("sherman3", scale=0.06 if self.quick else 0.5)
        self.plan = build_plan(self.a0)
        self.run_op(self.make_op(0))

    def make_op(self, i: int) -> list:
        rng = rng_for(self.seed, _WARM, i)
        return [(perturbed(self.a0, rng), rng.standard_normal(self.a0.n_cols))]

    def solve(self, a, b: np.ndarray) -> np.ndarray:
        fact = refactorize_with_plan(self.plan, a, engine=self.engine, n_workers=2)
        self.held = fact, a
        return fact.solve(b)

    def prewarmed(self) -> list:
        return [self.a0]

    def check_invariants(self) -> None:
        """Sequential and threaded factors of op 0 are bitwise identical."""
        ((a, _),) = self.make_op(0)
        seq, thr = (
            refactorize_with_plan(self.plan, a, engine=e, n_workers=2).result
            for e in ("sequential", "threaded")
        )
        if not same_factors(seq, thr):
            raise RuntimeError("sequential and threaded factors differ")


class WarmRefactorMT(WarmRefactor):
    name = "warm_refactor_mt"
    engine = "threaded"


def same_factors(x, y) -> bool:
    """Bitwise equality of two ``FactorResult``s."""
    return all(
        np.array_equal(p, q)
        for fx, fy in ((x.l_factor, y.l_factor), (x.u_factor, y.u_factor))
        for p, q in (
            (fx.indptr, fy.indptr),
            (fx.indices, fy.indices),
            (fx.data, fy.data),
        )
    ) and np.array_equal(x.orig_at, y.orig_at)


def drive_service(service, requests):
    """Two closed-loop clients pulling ``(a, b)`` from the shared iterator.

    Returns the per-request latencies in completion order, the number of
    requests that raised, timed out or left a residual above the
    tolerance, and the first error seen.
    """
    lock = threading.Lock()
    latencies: list = []
    failures: list = []

    def client() -> None:
        while True:
            with lock:
                request = next(requests, None)
            if request is None:
                return
            a, b = request
            error = None
            t0 = time.perf_counter()
            try:
                x = service.solve(a, b, timeout=REQUEST_TIMEOUT_S)
            except Exception as err:  # a failed request is counted; the run goes on
                error = repr(err)
            dt = time.perf_counter() - t0
            if error is None and scaled_residual(a, x, b) > RESIDUAL_TOL:
                error = "residual above tolerance"
            with lock:
                latencies.append(dt)
                if error is not None:
                    failures.append(error)

    clients = [threading.Thread(target=client) for _ in range(N_CLIENTS)]
    for t in clients:
        t.start()
    for t in clients:
        t.join()
    return latencies, len(failures), failures[0] if failures else None


class ServeMixed(Workload):
    """Two clients against ``SolverService()`` with a ``PlanCache``.

    Requests come as adjacent pairs that share one matrix (same values, two
    right-hand sides), so the batcher can merge them. Pair ``j`` reuses hot
    pattern ``j mod 4`` with fresh values, except that every 5th pair
    brings a pattern the service has never seen: a fifth of the requests,
    so that the 90th percentile lies inside the slow mode and not on its
    edge.
    """

    name = "serve_mixed"
    n_hot = 4
    miss_every = 5
    min_pairs = 8
    trace_ops = 16
    segments = 5
    resolves_per_segment = 8

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.scale = 0.03 if quick else 0.15
        self.service = None

    def setup(self) -> None:
        self.hot = [
            paper_matrix(
                "sherman3",
                scale=self.scale,
                seed=_matrix_seed(rng_for(self.seed, _HOT, k)),
            )
            for k in range(self.n_hot)
        ]
        self.cache = PlanCache(max_entries=32)
        self.service = SolverService(cache=self.cache)
        for a in self.hot:
            self.service.solve(a, np.ones(a.n_cols), timeout=REQUEST_TIMEOUT_S)

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def make_pair(self, j: int):
        rng = rng_for(self.seed, _PAIR, j)
        if j % self.miss_every == self.miss_every - 1:
            a = paper_matrix("sherman3", scale=self.scale, seed=_matrix_seed(rng))
        else:
            a = perturbed(self.hot[j % self.n_hot], rng)
        return a, rng.standard_normal((a.n_cols, 2))

    def measure(self, seconds: float, hasher) -> Measured:
        """The request stream in ``segments`` timed windows.

        Between windows, with the service idle, come the 16-column solves.
        The service hands out solutions, not factors, so they run against
        factors of one hot matrix held the way a caller of the serve layer
        would hold them. Taking them in several short bursts spreads the
        samples over the run, as in the single-client workloads.
        """
        hot = self.hot[0]
        held = refactorize_with_plan(self.cache.get(hot), hot)
        latencies, resolves, first_errors = [], [], []
        window, failed, pairs = 0.0, 0, itertools.count()

        def stream(deadline: float):
            for j in pairs:
                a, bs = self.make_pair(j)
                for col in range(2):
                    if j < self.min_pairs:
                        hash_inputs(hasher, a, bs[:, col])
                    yield a, bs[:, col]
                if j + 1 >= self.min_pairs and time.perf_counter() >= deadline:
                    return

        before = self.service.stats()
        for _ in range(self.segments):
            t0 = time.perf_counter()
            seg_latencies, seg_failed, error = drive_service(
                self.service, stream(t0 + seconds / self.segments)
            )
            window += time.perf_counter() - t0
            latencies += seg_latencies
            failed += seg_failed
            first_errors.append(error)
            for _ in range(self.resolves_per_segment):  # the service is idle
                dt, bad = timed_resolve(held, hot, self.seed, len(resolves))
                resolves.append(dt)
                failed += bad
        detail = service_counts(before, self.service.stats())
        detail["first_error"] = next((e for e in first_errors if e), None)
        return Measured(latencies, latencies, window, resolves, failed, detail)

    def trace_slice(self):
        requests = []
        for j in range(self.trace_ops):
            a, bs = self.make_pair(j)
            requests += [(2 * j + col, a, bs[:, col]) for col in range(2)]
        return self.hot, requests


def service_counts(before: dict, after: dict) -> dict:
    """What the service and its cache did between two ``stats()`` calls."""
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    batches = after["batches"] - before["batches"]
    completed = after["completed"] - before["completed"]
    return {
        "serve.cache_hit_rate": hits / max(hits + misses, 1),
        "serve.plan_builds": misses,
        "serve.batches": batches,
        "serve.mean_batch_size": completed / max(batches, 1),
    }


WORKLOADS = {
    wl.name: wl for wl in (ColdSweep, WarmRefactor, WarmRefactorMT, ServeMixed)
}

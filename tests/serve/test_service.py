"""Solver service tests: backpressure, deadlines, batching, threading."""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.numeric.solver import SolverOptions
from repro.serve import (
    DeadlineExceededError,
    PlanCache,
    ServiceClosedError,
    ServiceOverloadedError,
    SolverService,
)
from repro.sparse.ops import matvec
from tests.conftest import random_pivot_matrix
from tests.parallel.test_shm_lifecycle import shm_segments


@pytest.fixture
def a30():
    return random_pivot_matrix(30, 0)


def residual(a, x, b):
    return float(np.max(np.abs(matvec(a, x) - b))) / float(np.max(np.abs(b)))


class TestBackpressure:
    def test_over_capacity_rejected_with_typed_error(self, a30):
        svc = SolverService(n_workers=0, max_queue=3)
        b = np.ones(30)
        accepted = [svc.submit(a30, b) for _ in range(3)]
        with pytest.raises(ServiceOverloadedError):
            svc.submit(a30, b)
        assert svc.stats()["rejected"] == 1
        # The accepted requests are unaffected and still complete.
        assert svc.process_once() == 3
        for p in accepted:
            assert residual(a30, p.result(timeout=5), b) < 1e-8
        svc.close()

    def test_queue_drains_then_accepts_again(self, a30):
        svc = SolverService(n_workers=0, max_queue=1)
        b = np.ones(30)
        svc.submit(a30, b)
        with pytest.raises(ServiceOverloadedError):
            svc.submit(a30, b)
        svc.process_once()
        p = svc.submit(a30, b)  # capacity freed
        svc.process_once()
        assert p.done
        svc.close()


class TestDeadlines:
    def test_late_request_cancelled_cleanly(self, a30):
        svc = SolverService(n_workers=0, max_queue=8)
        b = np.ones(30)
        p_late = svc.submit(a30, b, deadline_s=0.01)
        p_ok = svc.submit(a30, b)  # no deadline
        time.sleep(0.05)  # let the deadline lapse while queued
        svc.process_once()
        with pytest.raises(DeadlineExceededError):
            p_late.result(timeout=5)
        assert residual(a30, p_ok.result(timeout=5), b) < 1e-8
        assert svc.stats()["expired"] == 1
        svc.close()

    def test_default_deadline_applies(self, a30):
        svc = SolverService(n_workers=0, max_queue=8, default_deadline_s=0.01)
        p = svc.submit(a30, np.ones(30))
        time.sleep(0.05)
        svc.process_once()
        with pytest.raises(DeadlineExceededError):
            p.result(timeout=5)
        svc.close()

    def test_expired_batchmate_does_not_poison_batch(self, a30):
        svc = SolverService(n_workers=0, max_queue=8)
        b = np.ones(30)
        p1 = svc.submit(a30, b)
        p2 = svc.submit(a30, b, deadline_s=0.01)  # same batch key as p1
        p3 = svc.submit(a30, 2 * b)
        time.sleep(0.05)
        while svc.process_once():
            pass
        with pytest.raises(DeadlineExceededError):
            p2.result(timeout=5)
        assert residual(a30, p1.result(timeout=5), b) < 1e-8
        assert residual(a30, p3.result(timeout=5), 2 * b) < 1e-8
        svc.close()


class TestBatching:
    def test_same_matrix_requests_share_one_factorization(self, a30):
        svc = SolverService(n_workers=0, max_queue=16, max_batch=8)
        rng = np.random.default_rng(0)
        rhs = [rng.standard_normal(30) for _ in range(5)]
        pending = [svc.submit(a30, b) for b in rhs]
        assert svc.process_once() == 5  # one batch handled them all
        st = svc.stats()
        assert st["batches"] == 1
        assert st["mean_batch_size"] == 5.0
        for p, b in zip(pending, rhs):
            assert residual(a30, p.result(timeout=5), b) < 1e-8
        svc.close()

    def test_max_batch_respected(self, a30):
        svc = SolverService(n_workers=0, max_queue=16, max_batch=2)
        pending = [svc.submit(a30, np.ones(30)) for _ in range(5)]
        # One flight: one factorization, then ceil(5 / 2) blocked solves of
        # at most two requests each.
        assert svc.process_once() == 5
        assert svc.process_once() == 0
        assert all(p.done for p in pending)
        st = svc.stats()
        assert st["batches"] == 1
        assert st["mean_batch_size"] == 5.0
        assert st["joined"] == 3
        n_rhs = svc.metrics.histogram("solve.n_rhs")
        assert (n_rhs.count, n_rhs.max) == (3, 2)
        svc.close()

    def test_different_values_not_batched(self, a30):
        a_other = a30.with_values(a30.data * 2.0)
        svc = SolverService(n_workers=0, max_queue=16, max_batch=8)
        b = np.ones(30)
        p1 = svc.submit(a30, b)
        p2 = svc.submit(a_other, b)
        assert svc.process_once() == 1  # only the head's matrix
        assert p1.done and not p2.done
        svc.process_once()
        assert residual(a_other, p2.result(timeout=5), b) < 1e-8
        svc.close()

    def test_different_options_not_batched(self, a30):
        svc = SolverService(n_workers=0, max_queue=16, max_batch=8)
        b = np.ones(30)
        p1 = svc.submit(a30, b)
        p2 = svc.submit(a30, b, options=SolverOptions(postorder=False))
        assert svc.process_once() == 1
        svc.process_once()
        for p in (p1, p2):
            assert residual(a30, p.result(timeout=5), b) < 1e-8
        svc.close()

    def test_matrix_rhs_request(self, a30):
        svc = SolverService(n_workers=0, max_queue=8)
        B = np.column_stack([np.ones(30), np.arange(30.0) + 1])
        p = svc.submit(a30, B)
        svc.process_once()
        X = p.result(timeout=5)
        assert X.shape == (30, 2)
        for k in range(2):
            assert residual(a30, X[:, k], B[:, k]) < 1e-8
        svc.close()


class TestLifecycle:
    def test_submit_after_close_raises(self, a30):
        svc = SolverService(n_workers=0, max_queue=8)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(a30, np.ones(30))

    def test_close_without_drain_fails_pending(self, a30):
        svc = SolverService(n_workers=0, max_queue=8)
        p = svc.submit(a30, np.ones(30))
        svc.close(drain=False)
        with pytest.raises(ServiceClosedError):
            p.result(timeout=5)

    def test_context_manager(self, a30):
        with SolverService(n_workers=1, max_queue=8) as svc:
            p = svc.submit(a30, np.ones(30))
            assert residual(a30, p.result(timeout=30), np.ones(30)) < 1e-8
        with pytest.raises(ServiceClosedError):
            svc.submit(a30, np.ones(30))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SolverService(n_workers=-1)
        with pytest.raises(ValueError):
            SolverService(max_queue=0)
        with pytest.raises(ValueError):
            SolverService(max_batch=0)


class TestThreaded:
    def test_concurrent_submitters_all_served(self, a30):
        cache = PlanCache(max_entries=8)
        svc = SolverService(n_workers=3, max_queue=64, cache=cache)
        rng = np.random.default_rng(1)
        matrices = [a30] + [random_pivot_matrix(30, s) for s in (2, 3)]
        results = []
        lock = threading.Lock()

        def client(seed):
            local = np.random.default_rng(seed)
            for _ in range(4):
                a = matrices[int(local.integers(len(matrices)))]
                b = local.standard_normal(30)
                x = svc.submit(a, b).result(timeout=60)
                with lock:
                    results.append(residual(a, x, b))

        threads = [threading.Thread(target=client, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        svc.close()
        assert len(results) == 16
        assert max(results) < 1e-8
        st = svc.stats()
        assert st["completed"] == 16
        assert st["cache"]["entries"] <= len(matrices)

    def test_proc_engine_env_forks_nothing(self, a30, monkeypatch):
        # Batches factorize with the sequential engine on the service's
        # own threads: $REPRO_ENGINE does not reach them, so serving forks
        # no process and maps no shared-memory arena.
        monkeypatch.setenv("REPRO_ENGINE", "proc")
        children, segments = set(multiprocessing.active_children()), shm_segments()
        with SolverService(n_workers=2) as svc:
            b = np.ones(30)
            pending = [svc.submit(a30, b) for _ in range(3)]
            for p in pending:
                assert residual(a30, p.result(timeout=60), b) < 1e-8
            assert svc.stats()["batches"] >= 1
            assert set(multiprocessing.active_children()) <= children
            assert shm_segments() == segments

    def test_blocking_solve_helper(self, a30):
        with SolverService(n_workers=1) as svc:
            b = np.ones(30)
            x = svc.solve(a30, b, timeout=30)
            assert residual(a30, x, b) < 1e-8

    def test_blocking_solve_helper_unthreaded(self, a30):
        with SolverService(n_workers=0) as svc:
            b = np.ones(30)
            x = svc.solve(a30, b)
            assert residual(a30, x, b) < 1e-8

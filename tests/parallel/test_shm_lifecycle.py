"""Shared-memory arena lifecycle: every segment the proc engine creates
must be unlinked by the time control returns to the caller — on normal
exit, on error paths, across many repeated factorizations, and on
service shutdown. A leaked ``/dev/shm`` segment outlives the process and
eats machine memory until reboot, so these are regression tests against
the whole engine surface, not just :class:`SharedArena`."""

import os

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix
from repro.numeric.factor import LUFactorization
from repro.numeric.solver import SparseLUSolver
from repro.parallel.procengine import ProcPool, SharedArena, proc_factorize
from repro.util.errors import EngineError


def shm_segments() -> set:
    """Names of POSIX shared-memory segments currently alive (Linux)."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture
def analyzed():
    return SparseLUSolver(random_pivot_matrix(35, 0)).analyze()


@pytest.fixture
def baseline():
    return shm_segments()


class TestArenaLifecycle:
    def test_destroy_unlinks(self, analyzed, baseline):
        layout = LUFactorization(analyzed.a_work, analyzed.bp).data.layout
        arena = SharedArena(layout)
        assert len(shm_segments() - baseline) == 1
        arena.destroy()
        assert shm_segments() - baseline == set()

    def test_destroy_is_idempotent(self, analyzed, baseline):
        layout = LUFactorization(analyzed.a_work, analyzed.bp).data.layout
        arena = SharedArena(layout)
        arena.destroy()
        arena.destroy()
        assert shm_segments() - baseline == set()


class TestEngineExitPaths:
    def test_normal_run_leaves_nothing(self, analyzed, baseline):
        eng = LUFactorization(analyzed.a_work, analyzed.bp)
        proc_factorize(eng, None, 2)
        assert shm_segments() - baseline == set()

    def test_worker_exception_leaves_nothing(self, analyzed, baseline):
        def boom(rank, unit):
            raise RuntimeError("injected")

        eng = LUFactorization(analyzed.a_work, analyzed.bp)
        with pytest.raises(RuntimeError):
            proc_factorize(eng, None, 2, _fault_hook=boom)
        assert shm_segments() - baseline == set()

    def test_killed_worker_leaves_nothing(self, analyzed, baseline):
        def killer(rank, unit):
            os._exit(3)

        eng = LUFactorization(analyzed.a_work, analyzed.bp)
        with pytest.raises(EngineError):
            proc_factorize(eng, None, 2, _fault_hook=killer)
        assert shm_segments() - baseline == set()


class TestPoolLifecycle:
    def test_bound_pool_holds_exactly_one_segment(self, analyzed, baseline):
        pool = ProcPool(2)
        try:
            for _ in range(3):
                eng = LUFactorization(analyzed.a_work, analyzed.bp)
                pool.factorize(eng)
                assert len(shm_segments() - baseline) == 1
        finally:
            pool.close()
        assert shm_segments() - baseline == set()

    def test_rebind_swaps_segments_without_leaking(self, baseline):
        s1 = SparseLUSolver(random_pivot_matrix(30, 1)).analyze()
        s2 = SparseLUSolver(random_pivot_matrix(44, 2)).analyze()
        with ProcPool(2) as pool:
            for s in (s1, s2, s1):
                eng = LUFactorization(s.a_work, s.bp)
                pool.factorize(eng)
                assert len(shm_segments() - baseline) == 1
        assert shm_segments() - baseline == set()

    def test_fifty_factorizations_no_accumulation(self, analyzed, baseline):
        """The acceptance criterion: no leaked segments across a long
        repeated-refactorization run (the serving workload)."""
        ref = LUFactorization(analyzed.a_work, analyzed.bp)
        ref.factor_sequential()
        ref_l = ref.extract().l_factor.to_dense()
        with ProcPool(2) as pool:
            for _ in range(50):
                eng = LUFactorization(analyzed.a_work, analyzed.bp)
                pool.factorize(eng)
            assert len(shm_segments() - baseline) == 1
            assert np.array_equal(eng.extract().l_factor.to_dense(), ref_l)
        assert shm_segments() - baseline == set()


class TestServiceShutdown:
    def test_service_close_releases_segments(self, baseline):
        from repro.serve import SolverService

        a = random_pivot_matrix(30, 3)
        svc = SolverService(
            n_workers=0, max_queue=8, engine="proc", engine_workers=2
        )
        b = np.ones(30)
        promises = [svc.submit(a, b) for _ in range(2)]
        while svc.process_once():
            pass
        for p in promises:
            x = p.result(timeout=10)
            assert np.all(np.isfinite(x))
        svc.close()
        assert shm_segments() - baseline == set()

"""Shared-memory arena lifecycle: every segment the proc engine creates
must be unlinked by the time control returns to the caller — on normal
exit, on error paths, and across many repeated factorizations. A leaked
``/dev/shm`` segment outlives the process and eats machine memory until
reboot, so these are regression tests against the whole engine surface,
not just :class:`SharedArena`."""

import os

import numpy as np
import pytest

from tests.conftest import analyzed, random_pivot_matrix
from repro.numeric.factor import LUFactorization
from repro.parallel.procengine import ProcPool, SharedArena, proc_factorize
from repro.util.errors import EngineError


def shm_segments() -> set:
    """Names of POSIX shared-memory segments currently alive (Linux)."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture
def work():
    """``(a_work, bp)``: what an engine factors."""
    return engine_inputs(35, 0)


def engine_inputs(n, seed):
    plan, a_work = analyzed(random_pivot_matrix(n, seed))
    return a_work, plan.bp


@pytest.fixture
def baseline():
    return shm_segments()


class TestArenaLifecycle:
    def test_destroy_unlinks(self, work, baseline):
        layout = LUFactorization(*work).data.layout
        arena = SharedArena(layout)
        assert len(shm_segments() - baseline) == 1
        arena.destroy()
        assert shm_segments() - baseline == set()

    def test_destroy_is_idempotent(self, work, baseline):
        layout = LUFactorization(*work).data.layout
        arena = SharedArena(layout)
        arena.destroy()
        arena.destroy()
        assert shm_segments() - baseline == set()


class TestEngineExitPaths:
    def test_normal_run_leaves_nothing(self, work, baseline):
        eng = LUFactorization(*work)
        proc_factorize(eng, 2)
        assert shm_segments() - baseline == set()

    def test_worker_exception_leaves_nothing(self, work, baseline):
        def boom(rank, unit):
            raise RuntimeError("injected")

        eng = LUFactorization(*work)
        with pytest.raises(RuntimeError):
            proc_factorize(eng, 2, _fault_hook=boom)
        assert shm_segments() - baseline == set()

    def test_killed_worker_leaves_nothing(self, work, baseline):
        def killer(rank, unit):
            os._exit(3)

        eng = LUFactorization(*work)
        with pytest.raises(EngineError):
            proc_factorize(eng, 2, _fault_hook=killer)
        assert shm_segments() - baseline == set()


class TestPoolLifecycle:
    def test_bound_pool_holds_exactly_one_segment(self, work, baseline):
        pool = ProcPool(2)
        try:
            for _ in range(3):
                eng = LUFactorization(*work)
                pool.factorize(eng)
                assert len(shm_segments() - baseline) == 1
        finally:
            pool.close()
        assert shm_segments() - baseline == set()

    def test_rebind_swaps_segments_without_leaking(self, baseline):
        w1, w2 = engine_inputs(30, 1), engine_inputs(44, 2)
        with ProcPool(2) as pool:
            for w in (w1, w2, w1):
                eng = LUFactorization(*w)
                pool.factorize(eng)
                assert len(shm_segments() - baseline) == 1
        assert shm_segments() - baseline == set()

    def test_fifty_factorizations_no_accumulation(self, work, baseline):
        """The acceptance criterion: no leaked segments across a long
        repeated-refactorization run (the serving workload)."""
        ref = LUFactorization(*work)
        ref.factor_sequential()
        ref_l = ref.extract().l_factor.to_dense()
        with ProcPool(2) as pool:
            for _ in range(50):
                eng = LUFactorization(*work)
                pool.factorize(eng)
            assert len(shm_segments() - baseline) == 1
            assert np.array_equal(eng.extract().l_factor.to_dense(), ref_l)
        assert shm_segments() - baseline == set()

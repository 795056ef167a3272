"""Multi-process engine tests: bitwise identity, pool reuse, abort
hygiene, dispatch precedence."""

import os

import numpy as np
import pytest

from tests import conftest
from tests.conftest import random_pivot_matrix
from repro.numeric.factor import LUFactorization
from repro.parallel.dispatch import resolve_engine
from repro.parallel.procengine import ProcPool, SharedArena, proc_factorize
from repro.parallel.threads import release_plan, threaded_factorize
from repro.util.errors import EngineError, SingularMatrixError


def analyzed(seed=0, n=35, **opts):
    return conftest.analyzed(random_pivot_matrix(n, seed), **opts)


def sequential_reference(plan, a_work):
    ref = LUFactorization(a_work, plan.bp)
    ref.factor_sequential()
    return ref.extract()


def assert_bitwise(res, ref):
    assert np.array_equal(res.l_factor.to_dense(), ref.l_factor.to_dense())
    assert np.array_equal(res.u_factor.to_dense(), ref.u_factor.to_dense())
    assert np.array_equal(res.orig_at, ref.orig_at)


class TestBitwiseIdentity:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sequential_exactly(self, seed, n_workers):
        plan, a_work = analyzed(seed)
        ref = sequential_reference(plan, a_work)
        eng = LUFactorization(a_work, plan.bp)
        stats = proc_factorize(eng, n_workers)
        assert_bitwise(eng.extract(), ref)
        assert stats.n_tasks == plan.graph.n_tasks
        assert stats.n_procs == n_workers
        assert sum(stats.per_rank_units) == len(release_plan(plan.bp, n_workers).units)

    def test_matches_threaded_reference(self):
        plan, a_work = analyzed(3)
        thr = LUFactorization(a_work, plan.bp)
        threaded_factorize(thr, n_threads=4)
        prc = LUFactorization(a_work, plan.bp)
        proc_factorize(prc, 4)
        assert_bitwise(prc.extract(), thr.extract())

    def test_explicit_cyclic_mapping(self):
        # No placement to pin any more: whichever worker is free runs the
        # released unit, and the per-rank counts cover every unit.
        plan, a_work = analyzed(5)
        ref = sequential_reference(plan, a_work)
        eng = LUFactorization(a_work, plan.bp)
        stats = proc_factorize(eng, 3)
        assert_bitwise(eng.extract(), ref)
        assert len(stats.per_rank_units) == 3
        assert sum(stats.per_rank_units) == len(release_plan(plan.bp, 3).units)

    def test_single_worker_sends_no_messages(self):
        # One worker runs every unit; its only messages are the parent's
        # dispatches and its replies — none between workers.
        plan, a_work = analyzed(6)
        eng = LUFactorization(a_work, plan.bp)
        stats = proc_factorize(eng, 1)
        n_units = len(release_plan(plan.bp, 1).units)
        assert stats.per_rank_units == [n_units]
        assert stats.n_messages == 2 * n_units
        assert stats.message_bytes == 8 * n_units  # one int64 per unit


class TestAbortHygiene:
    def test_killed_worker_raises_engine_error(self):
        plan, a_work = analyzed(7)
        eng = LUFactorization(a_work, plan.bp)

        def killer(rank, unit):
            os._exit(17)

        with pytest.raises(EngineError, match="died without reporting"):
            proc_factorize(eng, 3, _fault_hook=killer)

    def test_worker_exception_keeps_original_type(self):
        plan, a_work = analyzed(8)
        eng = LUFactorization(a_work, plan.bp)

        def boom(rank, unit):
            raise SingularMatrixError("injected failure")

        with pytest.raises(SingularMatrixError, match="injected failure"):
            proc_factorize(eng, 3, _fault_hook=boom)

    def test_invalid_worker_count(self):
        plan, a_work = analyzed(0)
        eng = LUFactorization(a_work, plan.bp)
        with pytest.raises(ValueError):
            proc_factorize(eng, 0)


class TestProcPool:
    def test_warm_reuse_same_plan_keeps_workers(self):
        plan, a_work = analyzed(1)
        ref = sequential_reference(plan, a_work)
        with ProcPool(2) as pool:
            eng = LUFactorization(a_work, plan.bp)
            pool.factorize(eng)
            pids = [p.pid for p in pool._state["procs"]]
            for _ in range(2):
                eng = LUFactorization(a_work, plan.bp)
                pool.factorize(eng)
                assert_bitwise(eng.extract(), ref)
            assert [p.pid for p in pool._state["procs"]] == pids

    def test_rebinds_on_different_plan(self):
        plan1, a_work1 = analyzed(2)
        plan2, a_work2 = analyzed(3, n=42)
        with ProcPool(2) as pool:
            eng = LUFactorization(a_work1, plan1.bp)
            pool.factorize(eng)
            pids = [p.pid for p in pool._state["procs"]]
            eng = LUFactorization(a_work2, plan2.bp)
            pool.factorize(eng)
            assert [p.pid for p in pool._state["procs"]] != pids
            assert_bitwise(eng.extract(), sequential_reference(plan2, a_work2))

    def test_closed_pool_raises(self):
        plan, a_work = analyzed(4)
        pool = ProcPool(2)
        pool.close()
        assert pool.closed
        eng = LUFactorization(a_work, plan.bp)
        with pytest.raises(EngineError, match="closed"):
            pool.factorize(eng)

    def test_close_is_idempotent(self):
        pool = ProcPool(2)
        pool.close()
        pool.close()

    def test_pool_recovers_after_worker_failure(self):
        plan, a_work = analyzed(5)

        def boom(rank, unit):
            raise RuntimeError("transient fault")

        pool = ProcPool(2)
        try:
            eng = LUFactorization(a_work, plan.bp)
            with pytest.raises(RuntimeError):
                pool.factorize(eng, _fault_hook=boom)
            # The failed pool was torn down; the next call rebinds.
            eng = LUFactorization(a_work, plan.bp)
            pool.factorize(eng)
            assert_bitwise(eng.extract(), sequential_reference(plan, a_work))
        finally:
            pool.close()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ProcPool(0)


class TestStatsAndObservability:
    def test_stats_accounting(self):
        plan, a_work = analyzed(6)
        eng = LUFactorization(a_work, plan.bp)
        stats = proc_factorize(eng, 2)
        assert stats.n_tasks == plan.graph.n_tasks
        assert len(stats.per_rank_units) == 2
        assert stats.makespan_seconds > 0
        assert 0.0 <= stats.efficiency <= 1.0
        # One dispatch (one int64) and one empty reply per unit.
        assert stats.n_messages == 2 * sum(stats.per_rank_units)
        assert stats.message_bytes == 4 * stats.n_messages

    def test_engine_metrics_exported(self):
        from repro.obs.metrics import MetricsRegistry

        plan, a_work = analyzed(7)
        eng = LUFactorization(a_work, plan.bp)
        reg = MetricsRegistry()
        proc_factorize(eng, 2, metrics=reg)
        assert reg.get("engine.tasks").value == plan.graph.n_tasks
        assert reg.get("engine.n_procs").value == 2
        assert reg.get("engine.makespan_seconds").value > 0

    def test_traced_span(self):
        from repro.obs.trace import Tracer

        plan, a_work = analyzed(8)
        eng = LUFactorization(a_work, plan.bp)
        tr = Tracer()
        proc_factorize(eng, 2, tracer=tr)
        names = [sp.name for root in tr.roots for sp in root.walk()]
        assert "engine.proc" in names


class TestSharedArena:
    def test_roundtrip_and_snapshot(self):
        plan, a_work = analyzed(9)
        eng = LUFactorization(a_work, plan.bp)
        layout = eng.data.layout
        arena = SharedArena(layout)
        try:
            assert arena.values.size == eng.data.values.size
            assert arena.pivot_ids.size == layout.sub_ptr[-1]
            # A store attached to the arena addresses the segment ...
            eng.data.attach(arena.values, arena.pivot_ids)
            for k in range(layout.n_blocks):
                eng.data.panels[k][...] = float(k + 1)
                eng.data.pivots[k][...] = k
            # ... and two whole-buffer copies bring it back to private memory.
            values, pivot_ids = arena.values.copy(), arena.pivot_ids.copy()
            eng.data.attach(values, pivot_ids)
        finally:
            arena.destroy()
        for k in range(layout.n_blocks):
            assert np.all(eng.data.panels[k] == float(k + 1))
            assert np.all(eng.data.sub_panels[k] == float(k + 1))
            assert np.all(eng.data.pivots[k] == k)


class TestDispatch:
    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "threaded")
        assert resolve_engine("proc") == "proc"

    def test_environment_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "proc")
        assert resolve_engine() == "proc"
        monkeypatch.delenv("REPRO_ENGINE")
        assert resolve_engine() == "sequential"

    def test_unknown_engine_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="valid engines"):
            resolve_engine("fortran")
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            resolve_engine()

    def test_lu_proc_engine_end_to_end(self):
        from repro.api import lu

        a = random_pivot_matrix(40, 11)
        b = np.arange(1, 41, dtype=np.float64)
        x_seq = lu(a, engine="sequential").solve(b)
        x_proc = lu(a, engine="proc", n_workers=2).solve(b)
        assert np.array_equal(x_seq, x_proc)

    def test_lu_respects_environment(self, monkeypatch):
        from repro.api import lu

        monkeypatch.setenv("REPRO_ENGINE", "proc")
        a = random_pivot_matrix(30, 12)
        b = np.ones(30)
        x = lu(a, n_workers=2).solve(b)
        monkeypatch.delenv("REPRO_ENGINE")
        assert np.array_equal(x, lu(a).solve(b))

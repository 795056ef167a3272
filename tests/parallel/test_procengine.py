"""Multi-process engine tests: bitwise identity, pool reuse, abort
hygiene, dispatch precedence."""

import os

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix
from repro.numeric.factor import LUFactorization
from repro.numeric.solver import SolverOptions, SparseLUSolver
from repro.parallel.dispatch import resolve_engine
from repro.parallel.procengine import ProcPool, SharedArena, proc_factorize
from repro.parallel.threads import threaded_factorize
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.tasks import factor_task
from repro.util.errors import AnalysisError, EngineError, SingularMatrixError


def analyzed(seed=0, n=35, **opts):
    return SparseLUSolver(
        random_pivot_matrix(n, seed), SolverOptions(**opts)
    ).analyze()


def sequential_reference(s):
    ref = LUFactorization(s.a_work, s.bp)
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
        s = analyzed(seed)
        ref = sequential_reference(s)
        eng = LUFactorization(s.a_work, s.bp)
        stats = proc_factorize(eng, None, n_workers)  # block steps
        assert_bitwise(eng.extract(), ref)
        assert stats.n_tasks == s.graph.n_tasks
        assert stats.n_procs == n_workers
        assert sum(stats.per_rank_units) == s.bp.n_blocks

    def test_matches_threaded_reference(self):
        s = analyzed(3)
        thr = LUFactorization(s.a_work, s.bp)
        threaded_factorize(thr, s.graph, n_threads=4)
        prc = LUFactorization(s.a_work, s.bp)
        proc_factorize(prc, s.graph, 4)
        assert_bitwise(prc.extract(), thr.extract())

    def test_sstar_graph_also_works(self):
        s = analyzed(4, task_graph="sstar")
        ref = sequential_reference(s)
        eng = LUFactorization(s.a_work, s.bp)
        proc_factorize(eng, s.graph, 3)
        assert_bitwise(eng.extract(), ref)

    def test_explicit_cyclic_mapping(self):
        # No placement to pin any more: whichever worker is free runs the
        # next released unit, and the per-rank counts cover every task.
        s = analyzed(5)
        ref = sequential_reference(s)
        eng = LUFactorization(s.a_work, s.bp)
        stats = proc_factorize(eng, s.graph, 3)
        assert_bitwise(eng.extract(), ref)
        assert len(stats.per_rank_units) == 3
        assert sum(stats.per_rank_units) == s.graph.n_tasks

    def test_single_worker_sends_no_messages(self):
        # One worker runs every unit; its only messages are the parent's
        # dispatches and its replies — none between workers.
        s = analyzed(6)
        eng = LUFactorization(s.a_work, s.bp)
        stats = proc_factorize(eng, None, 1)
        assert stats.per_rank_units == [s.bp.n_blocks]
        assert stats.n_messages == 2 * s.bp.n_blocks
        assert stats.message_bytes == 32 * s.bp.n_blocks


class TestAbortHygiene:
    def test_killed_worker_raises_engine_error(self):
        s = analyzed(7)
        eng = LUFactorization(s.a_work, s.bp)

        def killer(rank, unit):
            os._exit(17)

        with pytest.raises(EngineError, match="died without reporting"):
            proc_factorize(eng, None, 3, _fault_hook=killer)

    def test_worker_exception_keeps_original_type(self):
        s = analyzed(8)
        eng = LUFactorization(s.a_work, s.bp)

        def boom(rank, unit):
            raise SingularMatrixError("injected failure")

        with pytest.raises(SingularMatrixError, match="injected failure"):
            proc_factorize(eng, None, 3, _fault_hook=boom)

    def test_bad_graph_rejected_before_pool_starts(self):
        s = analyzed(9)
        eng = LUFactorization(s.a_work, s.bp)
        bad = TaskGraph()
        bad.add_task(factor_task(s.bp.n_blocks + 5))
        with pytest.raises(AnalysisError):
            proc_factorize(eng, bad, 2)

    def test_invalid_worker_count(self):
        s = analyzed(0)
        eng = LUFactorization(s.a_work, s.bp)
        with pytest.raises(ValueError):
            proc_factorize(eng, s.graph, 0)


class TestProcPool:
    def test_warm_reuse_same_plan_keeps_workers(self):
        s = analyzed(1)
        ref = sequential_reference(s)
        with ProcPool(2) as pool:
            eng = LUFactorization(s.a_work, s.bp)
            pool.factorize(eng)
            pids = [p.pid for p in pool._state["procs"]]
            # Steps, then the graph's tasks: the pool binds per block
            # pattern, not per graph.
            for graph in (None, s.graph):
                eng = LUFactorization(s.a_work, s.bp)
                pool.factorize(eng, graph)
                assert_bitwise(eng.extract(), ref)
            assert [p.pid for p in pool._state["procs"]] == pids

    def test_rebinds_on_different_plan(self):
        s1 = analyzed(2)
        s2 = analyzed(3, n=42)
        with ProcPool(2) as pool:
            eng = LUFactorization(s1.a_work, s1.bp)
            pool.factorize(eng)
            pids = [p.pid for p in pool._state["procs"]]
            eng = LUFactorization(s2.a_work, s2.bp)
            pool.factorize(eng)
            assert [p.pid for p in pool._state["procs"]] != pids
            assert_bitwise(eng.extract(), sequential_reference(s2))

    def test_closed_pool_raises(self):
        s = analyzed(4)
        pool = ProcPool(2)
        pool.close()
        assert pool.closed
        eng = LUFactorization(s.a_work, s.bp)
        with pytest.raises(EngineError, match="closed"):
            pool.factorize(eng, s.graph)

    def test_close_is_idempotent(self):
        pool = ProcPool(2)
        pool.close()
        pool.close()

    def test_pool_recovers_after_worker_failure(self):
        s = analyzed(5)

        def boom(rank, unit):
            raise RuntimeError("transient fault")

        pool = ProcPool(2)
        try:
            eng = LUFactorization(s.a_work, s.bp)
            with pytest.raises(RuntimeError):
                pool.factorize(eng, _fault_hook=boom)
            # The failed pool was torn down; the next call rebinds.
            eng = LUFactorization(s.a_work, s.bp)
            pool.factorize(eng)
            assert_bitwise(eng.extract(), sequential_reference(s))
        finally:
            pool.close()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ProcPool(0)


class TestStatsAndObservability:
    def test_stats_accounting(self):
        s = analyzed(6)
        eng = LUFactorization(s.a_work, s.bp)
        stats = proc_factorize(eng, None, 2)
        assert stats.n_tasks == s.graph.n_tasks
        assert len(stats.per_rank_units) == 2
        assert stats.makespan_seconds > 0
        assert 0.0 <= stats.efficiency <= 1.0
        # One dispatch (four int64s) and one empty reply per unit.
        assert stats.n_messages == 2 * sum(stats.per_rank_units)
        assert stats.message_bytes == 16 * stats.n_messages

    def test_engine_metrics_exported(self):
        from repro.obs.metrics import MetricsRegistry

        s = analyzed(7)
        eng = LUFactorization(s.a_work, s.bp)
        reg = MetricsRegistry()
        proc_factorize(eng, None, 2, metrics=reg)
        assert reg.get("engine.tasks").value == s.graph.n_tasks
        assert reg.get("engine.n_procs").value == 2
        assert reg.get("engine.makespan_seconds").value > 0

    def test_traced_span(self):
        from repro.obs.trace import Tracer

        s = analyzed(8)
        eng = LUFactorization(s.a_work, s.bp)
        tr = Tracer()
        proc_factorize(eng, None, 2, tracer=tr)
        names = [sp.name for root in tr.roots for sp in root.walk()]
        assert "engine.proc" in names


class TestSharedArena:
    def test_roundtrip_and_snapshot(self):
        s = analyzed(9)
        eng = LUFactorization(s.a_work, s.bp)
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

    def test_checked_runs_rejected(self):
        from repro.parallel.dispatch import run_engine

        s = analyzed(10)
        eng = LUFactorization(s.a_work, s.bp, check_dependencies=True)
        with pytest.raises(ValueError, match="check_dependencies"):
            run_engine(eng, s.graph, "proc", n_workers=2)

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

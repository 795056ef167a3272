"""Threaded block-step executor tests."""

import numpy as np
import pytest

from tests import conftest
from tests.conftest import random_pivot_matrix
from repro.numeric.factor import LUFactorization
from repro.parallel.threads import _run_pool, release_plan, threaded_factorize


def analyzed(seed=0, n=35, **opts):
    return conftest.analyzed(random_pivot_matrix(n, seed), **opts)


class TestThreadedExecution:
    @pytest.mark.parametrize("n_threads", [1, 2, 4, 8])
    def test_matches_sequential(self, n_threads):
        plan, a_work = analyzed()
        ref = LUFactorization(a_work, plan.bp)
        ref.factor_sequential()
        ref_res = ref.extract()
        eng = LUFactorization(a_work, plan.bp)
        threaded_factorize(eng, n_threads=n_threads)
        res = eng.extract()
        assert np.allclose(res.l_factor.to_dense(), ref_res.l_factor.to_dense())
        assert np.allclose(res.u_factor.to_dense(), ref_res.u_factor.to_dense())
        assert np.array_equal(res.orig_at, ref_res.orig_at)

    def test_repeated_runs_stable(self):
        plan, a_work = analyzed(1)
        ref = LUFactorization(a_work, plan.bp)
        ref.factor_sequential()
        ref_l = ref.extract().l_factor.to_dense()
        for _ in range(3):
            eng = LUFactorization(a_work, plan.bp)
            threaded_factorize(eng, n_threads=6)
            assert np.allclose(eng.extract().l_factor.to_dense(), ref_l)

    def test_metrics_count_units(self):
        from repro.obs.metrics import MetricsRegistry

        plan, a_work = analyzed(2)
        eng = LUFactorization(a_work, plan.bp)
        reg = MetricsRegistry()
        threaded_factorize(eng, n_threads=2, metrics=reg)
        n_units = len(release_plan(plan.bp, 2).units)
        assert reg.get("threads.tasks_executed").value == n_units
        assert reg.get("threads.workers").value == 2

    def test_invalid_thread_count(self):
        plan, a_work = analyzed(3)
        eng = LUFactorization(a_work, plan.bp)
        with pytest.raises(ValueError):
            threaded_factorize(eng, n_threads=0)

    def test_error_propagation(self):
        from repro.util.errors import SchedulingError

        plan, a_work = analyzed(4)
        eng = LUFactorization(a_work, plan.bp)
        threaded_factorize(eng, n_threads=2)
        # Every step of a finished engine raises "executed twice" in a
        # worker; the exception must surface in the caller.
        with pytest.raises(SchedulingError, match="executed twice"):
            threaded_factorize(eng, n_threads=2)


class _PoisonedRunner:
    """Runner whose unit ``poison`` raises; all other units count work.

    The wide star (one root releasing many independent units) fills the
    work queue, so a clean abort must discard queued units rather than
    letting surviving workers chew through them.
    """

    def __init__(self, poison):
        self.poison = poison
        self.done = set()
        self.executed_after_poison = 0
        self.poisoned = False

    def __call__(self, unit):
        if unit == self.poison:
            self.poisoned = True
            raise RuntimeError("poisoned task")
        if self.poisoned:
            self.executed_after_poison += 1
        self.done.add(unit)


def _run_star(runner, n_threads, width):
    """Drive the release loop over a star: unit 0 releases units 1..width."""
    successors = [list(range(1, width + 1))] + [[] for _ in range(width)]
    _run_pool([runner] * n_threads, successors, None)


class TestAbortHygiene:
    def test_poisoned_task_aborts_promptly_and_drains_queue(self):
        width = 200
        runner = _PoisonedRunner(poison=1)
        captured = {}

        import repro.parallel.threads as threads_mod

        orig_queue = threads_mod.Queue

        class RecordingQueue(orig_queue):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                captured["queue"] = self

        try:
            threads_mod.Queue = RecordingQueue
            with pytest.raises(RuntimeError, match="poisoned task"):
                _run_star(runner, 4, width)
        finally:
            threads_mod.Queue = orig_queue

        # The queue must not outlive the pool: no leftover units *or*
        # sentinels once the error has propagated.
        assert captured["queue"].qsize() == 0
        assert captured["queue"].empty()
        # The abort was prompt: workers drained the ~200 queued siblings
        # instead of executing them. A few may slip through between the
        # poison raising and the abort flag being set; allow a small
        # scheduling window but not bulk execution.
        assert runner.executed_after_poison <= 25
        assert len(runner.done) < width + 1 - 100

    def test_poisoned_task_single_worker(self):
        runner = _PoisonedRunner(poison=1)
        with pytest.raises(RuntimeError, match="poisoned task"):
            _run_star(runner, 1, 50)
        # Single worker: nothing can run after the poison at all.
        assert runner.executed_after_poison == 0

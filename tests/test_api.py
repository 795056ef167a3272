"""Convenience-API tests (repro.api)."""

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix
from repro.api import LUHandle, lu, solve


class TestConvenienceAPI:
    def test_solve_one_call(self):
        a = random_pivot_matrix(25, 0)
        b = np.ones(25)
        x = solve(a, b)
        from repro.sparse.ops import matvec

        assert np.max(np.abs(matvec(a, x) - b)) < 1e-8

    def test_lu_handle_reuse(self):
        a = random_pivot_matrix(25, 1)
        handle = lu(a)
        assert isinstance(handle, LUHandle)
        for seed in range(3):
            b = np.random.default_rng(seed).standard_normal(25)
            x = handle.solve(b)
            from repro.sparse.ops import matvec

            assert np.max(np.abs(matvec(a, x) - b)) < 1e-6

    def test_options_forwarded(self):
        a = random_pivot_matrix(20, 2)
        handle = lu(a, ordering="rcm", postorder=False, task_graph="sstar")
        assert handle.plan.options.ordering == "rcm"
        assert not handle.plan.options.postorder

    def test_invalid_option_rejected(self):
        a = random_pivot_matrix(10, 3)
        with pytest.raises(TypeError):
            lu(a, nonsense=True)
        with pytest.raises(ValueError):
            lu(a, ordering="metis")

    def test_stats_and_condest(self):
        a = random_pivot_matrix(20, 4)
        handle = lu(a)
        assert handle.stats.n == 20
        assert handle.condition_estimate >= 1.0

    def test_refined_solve(self):
        a = random_pivot_matrix(20, 5)
        handle = lu(a)
        rr = handle.solve_refined(np.ones(20))
        assert rr.backward_errors[-1] < 1e-10

    def test_empty_matrix_solves(self):
        # Every symbolic stage accepts n = 0, so the numeric phase must too.
        from repro.serve import SolverService
        from repro.sparse.convert import csc_from_dense

        a = csc_from_dense(np.zeros((0, 0)))
        x = lu(a).solve(np.zeros(0))
        assert x.shape == (0,)
        with SolverService() as svc:
            assert svc.solve(a, np.zeros(0)).shape == (0,)

    def test_doctest_example(self):
        import doctest

        import repro.api as api

        results = doctest.testmod(api)
        assert results.failed == 0


class TestNonFiniteInput:
    """NaN/Inf never reach the kernels: every entry point ends in the typed
    error the service already raised at ``submit()``, and the handle that
    refused the input still serves the next request."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", ["lu", "refactor", "with_plan", "solve"])
    def test_rejected_with_a_typed_error(self, entry, bad):
        import warnings

        from repro.serve import NonFiniteInputError, refactorize_with_plan

        a = random_pivot_matrix(25, 6)
        b = np.ones(25)
        poisoned = a.data.copy()
        poisoned[7] = bad
        handle = lu(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from a kernel
            with pytest.raises(NonFiniteInputError):
                if entry == "lu":
                    lu(a.with_values(poisoned))
                elif entry == "refactor":
                    handle.refactor(poisoned)
                elif entry == "with_plan":
                    refactorize_with_plan(handle.plan, a.with_values(poisoned))
                else:
                    handle.solve(np.where(np.arange(25) == 3, bad, b))
        from repro.sparse.ops import matvec

        assert np.max(np.abs(matvec(a, handle.solve(b)) - b)) < 1e-8

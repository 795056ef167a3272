"""Iterative refinement and condition-estimate tests."""

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix, solve_pipeline
from repro.api import lu
from repro.numeric.refine import backward_error, condest_1norm, iterative_refinement
from repro.sparse.convert import csc_from_dense


class TestBackwardError:
    def test_exact_solution_is_zero(self):
        a = csc_from_dense(np.array([[2.0, 0.0], [0.0, 4.0]]))
        x = np.array([1.0, 2.0])
        b = np.array([2.0, 8.0])
        assert backward_error(a, x, b) == 0.0

    def test_scales_with_perturbation(self):
        a = csc_from_dense(np.eye(3) * 2.0)
        b = np.ones(3)
        x = b / 2.0
        small = backward_error(a, x + 1e-10, b)
        large = backward_error(a, x + 1e-4, b)
        assert small < large


class TestIterativeRefinement:
    def test_already_converged(self):
        a = random_pivot_matrix(30, 0)
        rr = lu(a).solve_refined(np.ones(30))
        assert rr.converged
        assert rr.backward_errors[-1] < 1e-13

    def test_improves_degraded_solver(self):
        """Feed refinement a deliberately inexact solve; it must recover."""
        a = random_pivot_matrix(25, 1)
        s = solve_pipeline(a)
        rng = np.random.default_rng(1)

        def sloppy(v):
            x = s.solve(v)
            return x * (1.0 + 1e-6 * rng.standard_normal(x.size))

        b = np.ones(25)
        rr = iterative_refinement(a, sloppy, b, max_iters=8, tol=1e-12)
        assert rr.backward_errors[-1] < rr.backward_errors[0]

    def test_iteration_cap(self):
        a = random_pivot_matrix(20, 2)
        s = solve_pipeline(a)
        rr = iterative_refinement(a, s.solve, np.ones(20), max_iters=2)
        assert rr.iterations <= 2

    def test_error_history_recorded(self):
        a = random_pivot_matrix(20, 3)
        rr = lu(a).solve_refined(np.ones(20))
        assert len(rr.backward_errors) >= 1


class TestCondest:
    @pytest.mark.parametrize("seed", range(5))
    def test_within_factor_of_true_cond(self, seed):
        a = random_pivot_matrix(40, seed)
        s = solve_pipeline(a)
        est = s.condition_estimate()
        true = np.linalg.cond(s.a_work.to_dense(), 1)
        # Hager-Higham is a lower bound, usually within a small factor.
        assert est <= true * 1.001
        assert est >= true / 50.0

    def test_identity_is_one(self):
        a = csc_from_dense(np.eye(8))
        s = solve_pipeline(a)
        assert s.condition_estimate() == pytest.approx(1.0)

    def test_direct_call(self):
        a = random_pivot_matrix(25, 7)
        s = solve_pipeline(a)
        est = condest_1norm(
            s.a_work, s.result.l_factor, s.result.u_factor, s.result.orig_at
        )
        assert est >= 1.0

"""Refactorization (same pattern, new values) tests."""

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix, solve_pipeline
from repro.api import lu
from repro.sparse.generators import random_sparse
from repro.util.errors import PlanMismatchError, ShapeError


def perturbed(a, seed):
    rng = np.random.default_rng(seed)
    b = a.copy()
    b.data = b.data * (1.0 + 0.3 * rng.standard_normal(b.data.size))
    return b


class TestRefactorize:
    def test_matches_fresh_solver(self):
        a = random_pivot_matrix(30, 0)
        handle = lu(a)
        a2 = perturbed(a, 1)
        handle.refactor(a2)
        b = np.ones(30)
        x_re = handle.solve(b)
        x_fresh = solve_pipeline(a2).solve(b)
        assert np.allclose(x_re, x_fresh, rtol=1e-8, atol=1e-10)
        assert handle.solver.residual_norm(x_re, b) < 1e-8

    def test_repeated_steps(self):
        a = random_pivot_matrix(25, 2)
        handle = lu(a)
        for step in range(4):
            a_step = perturbed(a, step)
            handle.refactor(a_step)
            b = np.arange(1.0, 26.0)
            x = handle.solve(b)
            assert handle.solver.residual_norm(x, b) < 1e-7, f"step {step}"
        assert "factorize" in handle.trace.stage_seconds()

    def test_rejects_different_pattern(self):
        a = random_pivot_matrix(20, 4)
        handle = lu(a)
        other = random_sparse(20, density=0.2, seed=99)
        with pytest.raises(PlanMismatchError):
            handle.refactor(other)

    def test_rejects_pattern_only(self):
        a = random_pivot_matrix(15, 5)
        handle = lu(a)
        with pytest.raises(ShapeError):
            handle.refactor(a.pattern_only())

    def test_with_equilibration(self):
        from repro.numeric.refine import backward_error

        a = random_pivot_matrix(20, 6)
        handle = lu(a, equilibrate=True)
        a2 = perturbed(a, 7)
        handle.refactor(a2)
        b = np.ones(20)
        x = handle.solve(b)
        assert backward_error(a2, x, b) < 1e-12

"""Refactorization (same pattern, new values) tests."""

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix
from repro.numeric.solver import SolverOptions, SparseLUSolver
from repro.sparse.generators import random_sparse
from repro.util.errors import ReproError, ShapeError


def perturbed(a, seed):
    rng = np.random.default_rng(seed)
    b = a.copy()
    b.data = b.data * (1.0 + 0.3 * rng.standard_normal(b.data.size))
    return b


class TestRefactorize:
    def test_matches_fresh_solver(self):
        a = random_pivot_matrix(30, 0)
        solver = SparseLUSolver(a).analyze().factorize()
        a2 = perturbed(a, 1)
        solver.refactorize(a2)
        b = np.ones(30)
        x_re = solver.solve(b)
        x_fresh = SparseLUSolver(a2).analyze().factorize().solve(b)
        assert np.allclose(x_re, x_fresh, rtol=1e-8, atol=1e-10)
        assert solver.residual_norm(x_re, b) < 1e-8

    def test_repeated_steps(self):
        a = random_pivot_matrix(25, 2)
        solver = SparseLUSolver(a).analyze()
        for step in range(4):
            a_step = perturbed(a, step)
            solver.refactorize(a_step)
            b = np.arange(1.0, 26.0)
            x = solver.solve(b)
            assert solver.residual_norm(x, b) < 1e-7, f"step {step}"
        assert "factorize" in solver.tracer.stage_seconds()

    def test_requires_analysis(self):
        a = random_pivot_matrix(10, 3)
        s = SparseLUSolver(a)
        with pytest.raises(ReproError):
            s.refactorize(a)

    def test_rejects_different_pattern(self):
        a = random_pivot_matrix(20, 4)
        solver = SparseLUSolver(a).analyze()
        other = random_sparse(20, density=0.2, seed=99)
        with pytest.raises(ShapeError):
            solver.refactorize(other)

    def test_rejects_pattern_only(self):
        a = random_pivot_matrix(15, 5)
        solver = SparseLUSolver(a).analyze()
        with pytest.raises(ShapeError):
            solver.refactorize(a.pattern_only())

    def test_with_equilibration(self):
        from repro.numeric.refine import backward_error

        a = random_pivot_matrix(20, 6)
        solver = SparseLUSolver(a, SolverOptions(equilibrate=True)).analyze().factorize()
        a2 = perturbed(a, 7)
        solver.refactorize(a2)
        b = np.ones(20)
        x = solver.solve(b)
        assert backward_error(a2, x, b) < 1e-12

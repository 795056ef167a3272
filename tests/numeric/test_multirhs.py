"""Matrix (multi-column) right-hand-side support in the factorization's solve."""

from functools import partial

import numpy as np
import pytest

from repro.sparse.generators import paper_matrix
from repro.util.errors import ShapeError
from tests.conftest import random_pivot_matrix, scalar_solve, solve_pipeline


class TestMatrixRHS:
    def test_matches_column_by_column(self):
        # The scalar oracle is column-independent, so a blocked multi-RHS
        # solve is *bitwise* a stack of single-RHS solves. The block
        # engine's GEMM may round differently across widths, so it only
        # promises tight agreement.
        a = random_pivot_matrix(30, 0)
        fact = solve_pipeline(a)
        rng = np.random.default_rng(0)
        B = rng.standard_normal((30, 5))
        X_ref = scalar_solve(fact, B)
        X = fact.solve(B)
        assert X.shape == (30, 5)
        scale = np.max(np.abs(X_ref))
        assert np.allclose(X, X_ref, rtol=0, atol=1e-12 * scale)
        for k in range(5):
            xk = scalar_solve(fact, B[:, k])
            assert np.array_equal(X_ref[:, k], xk), f"column {k}"

    def test_single_column_matrix_vs_vector(self):
        a = random_pivot_matrix(25, 1)
        fact = solve_pipeline(a)
        b = np.arange(1.0, 26.0)
        for solve in (partial(scalar_solve, fact), fact.solve):
            x_vec = solve(b)
            x_mat = solve(b[:, None])
            assert x_mat.shape == (25, 1)
            assert np.array_equal(x_mat[:, 0], x_vec)

    def test_residuals_small(self):
        a = paper_matrix("sherman3", scale=0.06)
        fact = solve_pipeline(a)
        rng = np.random.default_rng(1)
        B = rng.standard_normal((a.n_cols, 3))
        X = fact.solve(B)
        for k in range(3):
            assert fact.residual_norm(X[:, k], B[:, k]) < 1e-8

    def test_equilibrated_matrix_rhs(self):
        a = random_pivot_matrix(30, 2)
        a = a.with_values(a.data * 1e4)  # provoke non-trivial scaling
        fact = solve_pipeline(a, equilibrate=True)
        rng = np.random.default_rng(2)
        B = rng.standard_normal((30, 4))
        X = fact.solve(B)
        for k in range(4):
            xk = fact.solve(B[:, k])
            assert np.allclose(X[:, k], xk, rtol=1e-12, atol=1e-12)
            assert fact.residual_norm(X[:, k], B[:, k]) < 1e-8

    def test_bad_shapes_rejected(self):
        a = random_pivot_matrix(20, 3)
        fact = solve_pipeline(a)
        with pytest.raises(ShapeError):
            fact.solve(np.ones(21))
        with pytest.raises(ShapeError):
            fact.solve(np.ones((21, 2)))
        with pytest.raises(ShapeError):
            fact.solve(np.ones((20, 2, 2)))

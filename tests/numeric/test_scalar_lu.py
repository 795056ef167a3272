"""Scalar (Gilbert-Peierls) LU reference-implementation tests."""

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix, solve_pipeline
from repro.numeric.scalar_lu import scalar_lu
from repro.sparse.convert import csc_from_dense
from repro.sparse.generators import paper_matrix, random_sparse
from repro.sparse.ops import matvec
from repro.util.errors import ShapeError, SingularMatrixError


class TestPALU:
    @pytest.mark.parametrize("seed", range(10))
    def test_pa_equals_lu(self, seed):
        a = random_pivot_matrix(35, seed)
        res = scalar_lu(a)
        pa = a.to_dense()[res.orig_at, :]
        lu = res.l_factor.to_dense() @ res.u_factor.to_dense()
        assert np.max(np.abs(pa - lu)) / max(1.0, np.abs(a.to_dense()).max()) < 1e-12

    def test_l_unit_lower_u_upper(self):
        res = scalar_lu(random_pivot_matrix(25, 1))
        l, u = res.l_factor.to_dense(), res.u_factor.to_dense()
        assert np.allclose(np.diag(l), 1.0)
        assert np.allclose(np.triu(l, 1), 0.0)
        assert np.allclose(np.tril(u, -1), 0.0)

    def test_works_without_zero_free_diagonal(self):
        # Pivoting finds the transversal implicitly.
        dense = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 3.0, 4.0]])
        res = scalar_lu(csc_from_dense(dense))
        pa = dense[res.orig_at, :]
        lu = res.l_factor.to_dense() @ res.u_factor.to_dense()
        assert np.allclose(pa, lu)

    @pytest.mark.parametrize("threshold", [1.0, 0.5, 0.1])
    def test_threshold_pivoting_residual(self, threshold):
        a = paper_matrix("orsreg1", scale=0.12)
        res = scalar_lu(a, pivot_threshold=threshold)
        b = np.ones(a.n_cols)
        x = res.solve(b)
        assert np.max(np.abs(matvec(a, x) - b)) < 1e-8

    def test_threshold_small_keeps_sparser_factors(self):
        a = paper_matrix("saylr4", scale=0.12)
        strict = scalar_lu(a, pivot_threshold=1.0)
        relaxed = scalar_lu(a, pivot_threshold=0.1)
        # Diagonal preference typically produces no more fill.
        assert relaxed.nnz_factors() <= strict.nnz_factors() * 1.2


class TestAgainstSupernodal:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_solution_as_supernodal(self, seed):
        """Two independent algorithm families must agree on the solution."""
        a = random_pivot_matrix(40, seed)
        b = np.arange(1.0, 41.0)
        x_scalar = scalar_lu(a).solve(b)
        x_super = solve_pipeline(a).solve(b)
        assert np.allclose(x_scalar, x_super, rtol=1e-8, atol=1e-10)


class TestErrors:
    def test_rectangular(self):
        with pytest.raises(ShapeError):
            scalar_lu(csc_from_dense(np.ones((2, 3))))

    def test_pattern_only(self):
        with pytest.raises(ShapeError):
            scalar_lu(random_sparse(5, density=0.4, seed=0).pattern_only())

    def test_structurally_singular(self):
        dense = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            scalar_lu(csc_from_dense(dense))

    def test_numerically_singular(self):
        dense = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        with pytest.raises(SingularMatrixError):
            scalar_lu(csc_from_dense(dense))

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            scalar_lu(csc_from_dense(np.eye(3)), pivot_threshold=0.0)

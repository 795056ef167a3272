"""Multi-RHS and transpose triangular-solve tests."""

import numpy as np
import pytest
import scipy.linalg

from tests.conftest import analyzed, random_pivot_matrix
from repro.numeric.factor import LUFactorization
from repro.numeric.triangular import (
    lower_transpose_unit_solve_csc,
    lower_unit_solve_csc,
    upper_solve_csc,
    upper_transpose_solve_csc,
)
from repro.sparse.convert import csc_from_dense
from repro.util.errors import ShapeError


def random_unit_lower(n, seed):
    rng = np.random.default_rng(seed)
    l = np.tril(rng.standard_normal((n, n)) * (rng.random((n, n)) > 0.5), -1)
    return l + np.eye(n)


def random_upper(n, seed):
    rng = np.random.default_rng(seed)
    u = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) > 0.5), 1)
    return u + np.diag(1.0 + rng.random(n))


class TestMultiRHS:
    @pytest.mark.parametrize("seed", range(3))
    def test_lower_matrix_rhs(self, seed):
        l = random_unit_lower(15, seed)
        b = np.random.default_rng(seed).standard_normal((15, 4))
        y = lower_unit_solve_csc(csc_from_dense(l), b)
        assert np.allclose(l @ y, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_upper_matrix_rhs(self, seed):
        u = random_upper(15, seed)
        b = np.random.default_rng(100 + seed).standard_normal((15, 3))
        x = upper_solve_csc(csc_from_dense(u), b)
        assert np.allclose(u @ x, b)

    def test_vector_still_returns_vector(self):
        l = random_unit_lower(8, 0)
        y = lower_unit_solve_csc(csc_from_dense(l), np.ones(8))
        assert y.ndim == 1

    def test_3d_rejected(self):
        l = csc_from_dense(np.eye(3))
        with pytest.raises(ShapeError):
            lower_unit_solve_csc(l, np.ones((3, 1, 1)))

    def test_factor_result_multirhs(self):
        a = random_pivot_matrix(25, 0)
        plan, a_work = analyzed(a)
        eng = LUFactorization(a_work, plan.bp)
        eng.factor_sequential()
        res = eng.extract()
        aw = a_work.to_dense()
        b = np.random.default_rng(0).standard_normal((25, 5))
        x = res.solve(b)
        assert x.shape == (25, 5)
        assert np.allclose(aw @ x, b, atol=1e-7 * np.abs(aw).max())


class TestTransposeSolves:
    @pytest.mark.parametrize("seed", range(4))
    def test_lower_transpose(self, seed):
        l = random_unit_lower(15, seed)
        b = np.random.default_rng(seed).standard_normal(15)
        x = lower_transpose_unit_solve_csc(csc_from_dense(l), b)
        ref = scipy.linalg.solve_triangular(l.T, b, lower=False, unit_diagonal=True)
        assert np.allclose(x, ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_upper_transpose(self, seed):
        u = random_upper(15, seed)
        b = np.random.default_rng(seed).standard_normal(15)
        y = upper_transpose_solve_csc(csc_from_dense(u), b)
        ref = scipy.linalg.solve_triangular(u.T, b, lower=True)
        assert np.allclose(y, ref)

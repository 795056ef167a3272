"""Tests for permutation and matvec."""

import numpy as np
import pytest

from repro.sparse.generators import random_sparse
from repro.sparse.ops import matvec, permute
from repro.util.errors import PatternError, ShapeError


class TestPermute:
    def test_row_permutation_matches_dense(self):
        rng = np.random.default_rng(0)
        a = random_sparse(12, density=0.25, seed=0)
        p = rng.permutation(12)
        b = permute(a, row_perm=p)
        dense = np.zeros((12, 12))
        dense[p, :] = a.to_dense()
        assert np.array_equal(b.to_dense(), dense)

    def test_col_permutation_matches_dense(self):
        rng = np.random.default_rng(1)
        a = random_sparse(12, density=0.25, seed=1)
        q = rng.permutation(12)
        b = permute(a, col_perm=q)
        dense = np.zeros((12, 12))
        dense[:, q] = a.to_dense()
        assert np.array_equal(b.to_dense(), dense)

    def test_symmetric_permutation_keeps_diagonal(self):
        a = random_sparse(20, density=0.1, seed=2)
        p = np.random.default_rng(2).permutation(20)
        b = permute(a, row_perm=p, col_perm=p)
        assert np.array_equal(np.diag(b.to_dense()), np.diag(a.to_dense())[np.argsort(p)])

    def test_none_is_copy(self):
        a = random_sparse(8, density=0.3, seed=3)
        b = permute(a)
        assert np.array_equal(a.to_dense(), b.to_dense())
        b.data[0] = 99
        assert a.data[0] != 99 or a.data[0] == a.data[0]  # independent storage

    def test_invalid_permutation_rejected(self):
        a = random_sparse(5, density=0.3, seed=4)
        with pytest.raises(PatternError):
            permute(a, row_perm=np.array([0, 0, 1, 2, 3]))
        with pytest.raises(ShapeError):
            permute(a, col_perm=np.array([0, 1]))

    def test_pattern_only_permutation(self):
        a = random_sparse(10, density=0.2, seed=5).pattern_only()
        p = np.random.default_rng(5).permutation(10)
        b = permute(a, row_perm=p, col_perm=p)
        assert b.data is None
        assert b.nnz == a.nnz


class TestMatvec:
    def test_matches_dense(self):
        a = random_sparse(30, density=0.15, seed=6)
        x = np.random.default_rng(6).random(30)
        assert np.allclose(matvec(a, x), a.to_dense() @ x)

    def test_wrong_shape(self):
        a = random_sparse(5, density=0.3, seed=7)
        with pytest.raises(ShapeError):
            matvec(a, np.ones(4))

    def test_pattern_only_rejected(self):
        a = random_sparse(5, density=0.3, seed=8).pattern_only()
        with pytest.raises(PatternError):
            matvec(a, np.ones(5))

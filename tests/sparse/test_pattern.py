"""Pattern-algebra tests, with SciPy as the AᵀA oracle."""

import numpy as np

from repro.sparse.convert import csc_from_dense, csc_to_scipy
from repro.sparse.generators import random_sparse
from repro.sparse.pattern import (
    ata_pattern,
    has_zero_free_diagonal,
    pattern_contains,
    pattern_equal,
)


class TestAtaPattern:
    def test_matches_scipy(self):
        for seed in range(5):
            a = random_sparse(25, density=0.1, seed=seed)
            b = ata_pattern(a)
            s = csc_to_scipy(a.pattern_only())
            ref = (s.T @ s).toarray() != 0
            assert np.array_equal(b.to_dense() != 0, ref)

    def test_is_pattern_only(self):
        b = ata_pattern(random_sparse(10, density=0.2, seed=1))
        assert not b.has_values

    def test_symmetric(self):
        b = ata_pattern(random_sparse(20, density=0.15, seed=2))
        d = b.to_dense()
        assert np.array_equal(d, d.T)

    def test_empty_column(self):
        dense = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = ata_pattern(csc_from_dense(dense))
        assert b.col_rows(1).size == 0


class TestDiagonal:
    def test_zero_free_true(self):
        a = csc_from_dense(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert has_zero_free_diagonal(a)

    def test_zero_free_false(self):
        a = csc_from_dense(np.array([[0.0, 2.0], [1.0, 3.0]]))
        assert not has_zero_free_diagonal(a)

    def test_rectangular_is_false(self):
        a = csc_from_dense(np.ones((2, 3)))
        assert not has_zero_free_diagonal(a)


class TestContainment:
    def test_self_containment(self):
        a = random_sparse(15, density=0.2, seed=3).pattern_only()
        assert pattern_contains(a, a)
        assert pattern_equal(a, a)

    def test_strict_containment(self):
        outer = csc_from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]))
        inner = csc_from_dense(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert pattern_contains(outer, inner)
        assert not pattern_contains(inner, outer)
        assert not pattern_equal(outer, inner)

    def test_disjoint(self):
        a = csc_from_dense(np.array([[1.0, 0.0], [0.0, 0.0]]))
        b = csc_from_dense(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert not pattern_contains(a, b)

"""Tests for the synthetic benchmark-matrix generators."""

import numpy as np
import pytest

from repro.sparse.generators import (
    PAPER_MATRICES,
    arrow_pattern,
    banded_pattern,
    finite_element_matrix,
    fluid_flow_matrix,
    grid_pattern,
    paper_matrix,
    random_sparse,
    reservoir_matrix,
)
from repro.sparse.pattern import has_zero_free_diagonal


class TestReservoir:
    def test_shape_and_diagonal(self):
        a = reservoir_matrix(5, 4, 3, seed=0)
        assert a.shape == (60, 60)
        assert has_zero_free_diagonal(a)

    def test_full_stencil_density(self):
        a = reservoir_matrix(6, 6, 6, keep_offdiag=1.0, seed=1)
        # 7-point stencil: diag + up to 6 neighbours, boundaries fewer.
        assert 4.0 < a.nnz / a.n_cols <= 7.0

    def test_thinning_reduces_nnz(self):
        full = reservoir_matrix(6, 6, 6, keep_offdiag=1.0, seed=2)
        thin = reservoir_matrix(6, 6, 6, keep_offdiag=0.5, seed=2)
        assert thin.nnz < full.nnz

    def test_deterministic(self):
        a = reservoir_matrix(4, 4, 4, seed=7)
        b = reservoir_matrix(4, 4, 4, seed=7)
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_structurally_unsymmetric_when_thinned(self):
        a = reservoir_matrix(6, 6, 3, keep_offdiag=0.6, seed=3)
        d = a.to_dense() != 0
        assert not np.array_equal(d, d.T)


class TestFluidFlow:
    def test_shape(self):
        a = fluid_flow_matrix(5, 6, seed=0)
        assert a.shape == (90, 90)
        assert has_zero_free_diagonal(a)

    def test_unsymmetric_coupling(self):
        a = fluid_flow_matrix(6, 6, coupling=0.3, seed=1)
        d = a.to_dense() != 0
        assert not np.array_equal(d, d.T)

    def test_density_plausible(self):
        a = fluid_flow_matrix(10, 10, seed=2)
        assert 3.0 < a.nnz / a.n_cols < 9.0


class TestFiniteElement:
    def test_shape_and_diagonal(self):
        a = finite_element_matrix(8, 9, seed=0)
        assert a.shape == (72, 72)
        assert has_zero_free_diagonal(a)

    def test_denser_than_stencils(self):
        a = finite_element_matrix(12, 12, patch=4, seed=1)
        assert a.nnz / a.n_cols >= 12.0


class TestRandomSparse:
    def test_zero_free_diagonal_option(self):
        a = random_sparse(25, density=0.05, seed=0)
        assert has_zero_free_diagonal(a)
        b = random_sparse(25, density=0.05, zero_free_diagonal=False, seed=0)
        # at 5% density some diagonal entry is almost surely missing
        assert not has_zero_free_diagonal(b)

    def test_density_scaling(self):
        lo = random_sparse(50, density=0.02, seed=1)
        hi = random_sparse(50, density=0.2, seed=1)
        assert hi.nnz > lo.nnz


class TestPaperRegistry:
    @pytest.mark.parametrize("name", sorted(PAPER_MATRICES))
    def test_each_analog_builds(self, name):
        a = paper_matrix(name, scale=0.12)
        assert a.is_square
        assert a.nnz > a.n_cols
        assert has_zero_free_diagonal(a)

    @pytest.mark.parametrize("name", sorted(PAPER_MATRICES))
    def test_deterministic_per_name(self, name):
        a = paper_matrix(name, scale=0.1)
        b = paper_matrix(name, scale=0.1)
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_scale_changes_size(self):
        small = paper_matrix("orsreg1", scale=0.15)
        big = paper_matrix("orsreg1", scale=0.4)
        assert big.n_cols > small.n_cols

    def test_full_scale_orders_match_paper(self):
        # At scale=1.0 each analog is within 20% of the published order.
        for name, spec in PAPER_MATRICES.items():
            a = paper_matrix(name, scale=1.0)
            assert abs(a.n_cols - spec.paper_order) / spec.paper_order < 0.2, name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            paper_matrix("does-not-exist")

    def test_lns_differs_from_lnsp(self):
        a = paper_matrix("lnsp3937", scale=0.15)
        b = paper_matrix("lns3937", scale=0.15)
        assert a.nnz != b.nnz or not np.array_equal(a.to_dense(), b.to_dense())


class TestScalingPatterns:
    """The pattern-only families backing the large-n symbolic benchmark."""

    def test_banded_has_diagonal_and_respects_band(self):
        a = banded_pattern(300, band=3, keep=0.5, seed=0)
        assert a.is_square and a.data is None
        assert has_zero_free_diagonal(a)
        for j in range(a.n_cols):
            rows = a.indices[a.indptr[j] : a.indptr[j + 1]]
            assert np.all(np.abs(rows.astype(np.int64) - j) <= 3)
            assert np.array_equal(rows, np.sort(rows))
            assert np.unique(rows).size == rows.size

    def test_banded_deterministic_and_keep_scales(self):
        a = banded_pattern(200, band=4, keep=0.3, seed=9)
        b = banded_pattern(200, band=4, keep=0.3, seed=9)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        dense = banded_pattern(200, band=4, keep=0.9, seed=9)
        assert dense.nnz > a.nnz

    def test_arrow_matches_legacy_bench_construction(self):
        # The symbolic bench built this pattern inline before it moved
        # here; band=1 must reproduce it bit-for-bit (tridiagonal part
        # sparing the last column, plus a dense last column).
        from repro.sparse.csc import CSCMatrix, INDEX_DTYPE

        n = 40
        cols = []
        indptr = np.zeros(n + 1, dtype=np.int64)
        for j in range(n):
            if j == n - 1:
                rows = range(n)
            else:
                rows = sorted({max(j - 1, 0), j, j + 1})
            r = np.fromiter(rows, dtype=INDEX_DTYPE)
            cols.append(r)
            indptr[j + 1] = indptr[j] + r.size
        legacy = CSCMatrix(n, n, indptr, np.concatenate(cols), None, check=False)
        a = arrow_pattern(n, band=1)
        assert np.array_equal(a.indptr, legacy.indptr)
        assert np.array_equal(a.indices, legacy.indices)

    def test_arrow_last_column_dense(self):
        a = arrow_pattern(25, band=2)
        last = a.indices[a.indptr[24] : a.indptr[25]]
        assert np.array_equal(last, np.arange(25))
        assert has_zero_free_diagonal(a)

    def test_grid_shape_and_symmetry(self):
        a = grid_pattern(24, 5, tiles=4)
        assert a.n_cols == 24 * 5
        assert has_zero_free_diagonal(a)
        dense = np.zeros((a.n_cols, a.n_cols), dtype=bool)
        for j in range(a.n_cols):
            dense[a.indices[a.indptr[j] : a.indptr[j + 1]], j] = True
        assert np.array_equal(dense, dense.T)  # 5-point stencil is symmetric
        # Every column has at most 5 entries (center + 4 neighbors).
        counts = np.diff(a.indptr)
        assert counts.max() <= 5 and counts.min() >= 3

    def test_grid_interiors_decouple_across_tiles(self):
        # Interior columns of different tiles must never share a row, so
        # each tile's interior is an independent column-etree subtree.
        from repro.ordering.etree import column_etree

        a = grid_pattern(40, 4, tiles=4)
        parent = column_etree(a)
        # The forest must decompose: more than one root below the top
        # interface block means independent subtrees exist.
        n = a.n_cols
        interior = 4 * (40 - 2 * 3)  # 3 two-line interfaces removed
        roots_below = sum(
            1 for v in range(n) if parent[v] == -1 or parent[v] >= interior
        )
        assert roots_below >= 4

    def test_grid_rejects_too_many_tiles(self):
        with pytest.raises(ValueError, match="nx must be >= 3 \\* tiles"):
            grid_pattern(20, 4, tiles=8)
        with pytest.raises(ValueError, match=">= 1"):
            grid_pattern(24, 0, tiles=2)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            banded_pattern(0)
        with pytest.raises(ValueError, match="band must be >= 1"):
            banded_pattern(10, band=0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            arrow_pattern(0)

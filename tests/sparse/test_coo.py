"""Unit tests for the COO builder."""

import numpy as np
import pytest

from repro.sparse.coo import COOBuilder
from repro.util.errors import PatternError, ShapeError


class TestBuild:
    def test_single_entries(self):
        b = COOBuilder(2, 2)
        b.add(0, 0, 1.0)
        b.add(1, 1, 2.0)
        a = b.to_csc()
        assert a.get(0, 0) == 1.0
        assert a.get(1, 1) == 2.0
        assert a.nnz == 2

    def test_duplicates_are_summed(self):
        b = COOBuilder(2, 2)
        b.add(0, 1, 1.5)
        b.add(0, 1, 2.5)
        a = b.to_csc()
        assert a.get(0, 1) == 4.0
        assert a.nnz == 1

    def test_zero_sum_kept_by_default(self):
        b = COOBuilder(2, 2)
        b.add(0, 0, 1.0)
        b.add(0, 0, -1.0)
        assert b.to_csc().nnz == 1  # structural zero stays (as Ā requires)

    def test_drop_zeros(self):
        b = COOBuilder(2, 2)
        b.add(0, 0, 1.0)
        b.add(0, 0, -1.0)
        b.add(1, 0, 3.0)
        assert b.to_csc(drop_zeros=True).nnz == 1

    def test_extend_batch(self):
        b = COOBuilder(4, 4)
        b.extend(np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]))
        a = b.to_csc()
        assert a.nnz == 3
        assert a.get(2, 3) == 3.0

    def test_empty_builder(self):
        a = COOBuilder(3, 2).to_csc()
        assert a.nnz == 0
        assert a.shape == (3, 2)

    def test_columns_sorted(self):
        b = COOBuilder(5, 5)
        b.extend(np.array([4, 0, 2]), np.array([1, 1, 1]), np.ones(3))
        a = b.to_csc()
        assert a.col_rows(1).tolist() == [0, 2, 4]


class TestValidation:
    def test_out_of_range_row(self):
        b = COOBuilder(2, 2)
        with pytest.raises(PatternError):
            b.add(2, 0, 1.0)

    def test_out_of_range_col(self):
        b = COOBuilder(2, 2)
        with pytest.raises(PatternError):
            b.add(0, -1, 1.0)

    def test_negative_dims(self):
        with pytest.raises(ShapeError):
            COOBuilder(-1, 2)

    def test_mismatched_batch_lengths(self):
        b = COOBuilder(3, 3)
        with pytest.raises(ShapeError):
            b.extend(np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_empty_extend_is_noop(self):
        b = COOBuilder(3, 3)
        b.extend(np.array([], dtype=int), np.array([], dtype=int), np.array([]))
        assert b.to_csc().nnz == 0

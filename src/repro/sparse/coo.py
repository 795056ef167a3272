"""Incremental coordinate-format builder.

Generators and file readers accumulate ``(i, j, v)`` triples here and then
compress once. Duplicate entries are summed, matching SciPy/Matrix-Market
semantics (finite-element assembly in :mod:`repro.sparse.generators` relies
on this).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix, INDEX_DTYPE, VALUE_DTYPE
from repro.util.errors import PatternError, ShapeError


class COOBuilder:
    """Accumulates coordinate triples and compresses them into a CSC matrix."""

    def __init__(self, n_rows: int, n_cols: int) -> None:
        if n_rows < 0 or n_cols < 0:
            raise ShapeError(f"negative dimensions ({n_rows}, {n_cols})")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []

    def add(self, i: int, j: int, value: float) -> None:
        """Add a single entry; duplicates are summed at build time."""
        self.extend(np.array([i]), np.array([j]), np.array([value]))

    def extend(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
        """Add a batch of entries given as parallel arrays."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=VALUE_DTYPE)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ShapeError("rows/cols/values must be 1-D arrays of equal length")
        if rows.size == 0:
            return
        if rows.min() < 0 or rows.max() >= self.n_rows:
            raise PatternError("row index out of range")
        if cols.min() < 0 or cols.max() >= self.n_cols:
            raise PatternError("column index out of range")
        self._rows.append(rows)
        self._cols.append(cols)
        self._vals.append(values)

    def to_csc(self, *, drop_zeros: bool = False) -> CSCMatrix:
        """Compress to CSC, summing duplicates.

        Parameters
        ----------
        drop_zeros:
            When True, entries that sum to exactly 0.0 are removed from the
            pattern. Off by default: the static symbolic factorization treats
            *stored* zeros as structural nonzeros, exactly as the paper's
            ``Ā`` does.
        """
        if not self._rows:
            indptr = np.zeros(self.n_cols + 1, dtype=np.int64)
            return CSCMatrix(
                self.n_rows,
                self.n_cols,
                indptr,
                np.empty(0, dtype=INDEX_DTYPE),
                np.empty(0, dtype=VALUE_DTYPE),
                check=False,
            )
        rows = np.concatenate(self._rows)
        cols = np.concatenate(self._cols)
        vals = np.concatenate(self._vals)

        # Sort by (col, row) then merge duplicates.
        order = np.lexsort((rows, cols))
        rows, cols, vals = rows[order], cols[order], vals[order]
        key_change = np.empty(rows.size, dtype=bool)
        key_change[0] = True
        key_change[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group = np.cumsum(key_change) - 1
        n_groups = int(group[-1]) + 1
        sum_vals = np.zeros(n_groups, dtype=VALUE_DTYPE)
        np.add.at(sum_vals, group, vals)
        u_rows = rows[key_change]
        u_cols = cols[key_change]

        if drop_zeros:
            keep = sum_vals != 0.0
            u_rows, u_cols, sum_vals = u_rows[keep], u_cols[keep], sum_vals[keep]

        counts = np.bincount(u_cols, minlength=self.n_cols)
        indptr = np.zeros(self.n_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSCMatrix(
            self.n_rows,
            self.n_cols,
            indptr,
            u_rows.astype(INDEX_DTYPE),
            sum_vals,
            check=False,
        )

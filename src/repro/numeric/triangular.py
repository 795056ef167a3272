"""Sparse triangular solves on scalar CSC factors (paper step (4))."""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.util.errors import ShapeError, SingularMatrixError


def _check_rhs(n: int, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """Normalize a 1-D or 2-D right-hand side to 2-D; returns (B, was_1d)."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 1:
        if b.shape != (n,):
            raise ShapeError(f"rhs has shape {b.shape}, expected ({n},)")
        return b[:, None].copy(), True
    if b.ndim == 2:
        if b.shape[0] != n:
            raise ShapeError(f"rhs has {b.shape[0]} rows, expected {n}")
        return b.copy(), False
    raise ShapeError(f"rhs must be 1-D or 2-D, got ndim={b.ndim}")


def lower_unit_solve_csc(l_factor: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``L Y = B`` with ``L`` unit lower triangular in CSC form.

    ``b`` may be a vector or a matrix of right-hand sides; the stored
    diagonal (if any) is ignored and treated as 1.
    """
    n = l_factor.n_cols
    y, was_1d = _check_rhs(n, b)
    for j in range(n):
        yj = y[j, :]
        if not np.any(yj):
            continue
        rows = l_factor.col_rows(j)
        vals = l_factor.col_values(j)
        below = rows > j
        if np.any(below):
            y[rows[below], :] -= np.outer(vals[below], yj)
    return y[:, 0] if was_1d else y


def upper_solve_csc(u_factor: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``U X = B`` with ``U`` upper triangular in CSC form.

    ``b`` may be a vector or a matrix of right-hand sides.
    """
    n = u_factor.n_cols
    x, was_1d = _check_rhs(n, b)
    for j in range(n - 1, -1, -1):
        rows = u_factor.col_rows(j)
        vals = u_factor.col_values(j)
        # Diagonal is the last entry at or before j.
        dpos = np.searchsorted(rows, j)
        if dpos >= rows.size or rows[dpos] != j or vals[dpos] == 0.0:
            raise SingularMatrixError(f"missing or zero diagonal U[{j},{j}]")
        x[j, :] /= vals[dpos]
        xj = x[j, :]
        if np.any(xj) and dpos > 0:
            x[rows[:dpos], :] -= np.outer(vals[:dpos], xj)
    return x[:, 0] if was_1d else x


def lower_transpose_unit_solve_csc(l_factor: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``Lᵀ X = B`` with ``L`` unit lower triangular in CSC form.

    Works column-by-column of ``L`` in reverse — no transpose is formed.
    """
    n = l_factor.n_cols
    x, was_1d = _check_rhs(n, b)
    for j in range(n - 1, -1, -1):
        rows = l_factor.col_rows(j)
        vals = l_factor.col_values(j)
        below = rows > j
        if np.any(below):
            x[j, :] -= vals[below] @ x[rows[below], :]
    return x[:, 0] if was_1d else x


def upper_transpose_solve_csc(u_factor: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``Uᵀ Y = B`` with ``U`` upper triangular in CSC form."""
    n = u_factor.n_cols
    y, was_1d = _check_rhs(n, b)
    for j in range(n):
        rows = u_factor.col_rows(j)
        vals = u_factor.col_values(j)
        dpos = np.searchsorted(rows, j)
        if dpos >= rows.size or rows[dpos] != j or vals[dpos] == 0.0:
            raise SingularMatrixError(f"missing or zero diagonal U[{j},{j}]")
        if dpos > 0:
            y[j, :] -= vals[:dpos] @ y[rows[:dpos], :]
        y[j, :] /= vals[dpos]
    return y[:, 0] if was_1d else y

"""Equilibration: row/column scaling before factorization.

The classical ``equil`` step of SuperLU/LAPACK: scale ``A`` to
``A' = D_r A D_c`` so every row and column has unit max-norm, which tames
wildly scaled physical systems (reservoir models mix transmissibilities and
well terms spanning many orders of magnitude) before pivoting sees them.

Solving then goes through ``A' y = D_r b`` and ``x = D_c y``;
:func:`repro.serve.refactorize_with_plan` and
:meth:`repro.serve.NumericFactorization.solve` apply this transparently
when ``SolverOptions.equilibrate`` is on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.util.errors import SingularMatrixError


@dataclass(frozen=True)
class Equilibration:
    """Diagonal scalings ``D_r`` (rows) and ``D_c`` (columns)."""

    row_scale: np.ndarray
    col_scale: np.ndarray

    def apply(self, a: CSCMatrix) -> CSCMatrix:
        """Return ``D_r A D_c`` (same pattern, scaled values)."""
        out = a.copy()
        for j in range(a.n_cols):
            lo, hi = int(a.indptr[j]), int(a.indptr[j + 1])
            out.data[lo:hi] = (
                a.data[lo:hi] * self.row_scale[a.indices[lo:hi]] * self.col_scale[j]
            )
        return out

    def scale_rhs(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        scale = self.row_scale if b.ndim == 1 else self.row_scale[:, None]
        return b * scale

    def unscale_solution(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        scale = self.col_scale if y.ndim == 1 else self.col_scale[:, None]
        return y * scale


def equilibrate(a: CSCMatrix, *, max_sweeps: int = 2) -> Equilibration:
    """Max-norm equilibration (a couple of alternating row/column sweeps).

    After the sweeps every nonzero row and column max-magnitude is close to
    1. Raises :class:`SingularMatrixError` on an exactly zero row or column
    (nothing can rescale those).
    """
    if not a.has_values:
        raise ValueError("equilibration needs matrix values")
    n_rows, n_cols = a.shape
    row_scale = np.ones(n_rows)
    col_scale = np.ones(n_cols)
    for _ in range(max_sweeps):
        # Row pass.
        row_max = np.zeros(n_rows)
        for j in range(n_cols):
            lo, hi = int(a.indptr[j]), int(a.indptr[j + 1])
            if hi > lo:
                vals = np.abs(a.data[lo:hi]) * row_scale[a.indices[lo:hi]] * col_scale[j]
                np.maximum.at(row_max, a.indices[lo:hi], vals)
        if np.any(row_max == 0.0):
            bad = int(np.argmin(row_max))
            raise SingularMatrixError(f"row {bad} is exactly zero")
        row_scale /= row_max
        # Column pass.
        for j in range(n_cols):
            lo, hi = int(a.indptr[j]), int(a.indptr[j + 1])
            if hi == lo:
                raise SingularMatrixError(f"column {j} is exactly zero")
            vals = np.abs(a.data[lo:hi]) * row_scale[a.indices[lo:hi]] * col_scale[j]
            m = float(vals.max())
            if m == 0.0:
                raise SingularMatrixError(f"column {j} is exactly zero")
            col_scale[j] /= m
    return Equilibration(row_scale=row_scale, col_scale=col_scale)

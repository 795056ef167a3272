"""Structural and numerical operations on CSC matrices.

Permutation is the workhorse here: the pipeline permutes for the zero-free
diagonal (row permutation from the maximum transversal), for fill reduction
(symmetric-ish column+row), and for the postorder (strictly symmetric, to
preserve the diagonal and produce the block upper triangular form of §3).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sparse.csc import CSCMatrix, INDEX_DTYPE, VALUE_DTYPE
from repro.util.errors import PatternError, ShapeError


def _check_perm(p: np.ndarray, n: int, what: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.int64)
    if p.shape != (n,):
        raise ShapeError(f"{what} permutation has shape {p.shape}, expected ({n},)")
    if not np.array_equal(np.sort(p), np.arange(n)):
        raise PatternError(f"{what} permutation is not a permutation of 0..{n - 1}")
    return p


def permute(
    a: CSCMatrix,
    row_perm: Optional[np.ndarray] = None,
    col_perm: Optional[np.ndarray] = None,
) -> CSCMatrix:
    """Return ``B`` with ``B[row_perm[i], col_perm[j]] = A[i, j]``.

    Both permutations map *old* index to *new* index. Passing ``None`` leaves
    that side unpermuted. A symmetric permutation (``row_perm is col_perm``)
    maps diagonal to diagonal, which is what the postordering step requires.
    """
    if row_perm is None and col_perm is None:
        return a.copy()
    rp = (
        np.arange(a.n_rows, dtype=np.int64)
        if row_perm is None
        else _check_perm(row_perm, a.n_rows, "row")
    )
    cp = (
        np.arange(a.n_cols, dtype=np.int64)
        if col_perm is None
        else _check_perm(col_perm, a.n_cols, "column")
    )
    # One vectorized pass over all entries: relabel rows, tag each entry
    # with its new column, and sort by (new column, new row) — no
    # per-column Python loop. The combined scalar key makes it a single
    # argsort (keys are unique, so stability is irrelevant).
    new_rows = rp[a.indices]
    new_cols = np.repeat(cp, np.diff(a.indptr))
    order = np.argsort(new_cols * a.n_rows + new_rows)
    indices = new_rows[order].astype(INDEX_DTYPE, copy=False)
    data = None if a.data is None else a.data[order]
    indptr = np.zeros(a.n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(new_cols, minlength=a.n_cols), out=indptr[1:])
    return CSCMatrix(a.n_rows, a.n_cols, indptr, indices, data, check=False)


def matvec(a: CSCMatrix, x: np.ndarray) -> np.ndarray:
    """Compute ``A @ x`` column-wise; ``x`` may be a vector or ``(n, k)``."""
    if a.data is None:
        raise PatternError("pattern-only matrix has no values")
    x = np.asarray(x, dtype=VALUE_DTYPE)
    if x.ndim not in (1, 2) or x.shape[0] != a.n_cols:
        raise ShapeError(
            f"x has shape {x.shape}, expected ({a.n_cols},) or ({a.n_cols}, k)"
        )
    y = np.zeros((a.n_rows,) + x.shape[1:], dtype=VALUE_DTYPE)
    for j in range(a.n_cols):
        lo, hi = a.indptr[j], a.indptr[j + 1]
        if hi > lo:
            if x.ndim == 1:
                y[a.indices[lo:hi]] += a.data[lo:hi] * x[j]
            else:
                y[a.indices[lo:hi]] += a.data[lo:hi, None] * x[j]
    return y

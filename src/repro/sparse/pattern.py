"""Sparsity-pattern algebra.

The symbolic half of the pipeline never looks at values; these helpers
manipulate patterns as arrays of sorted indices. The most important one is
:func:`ata_pattern`: the fill-reducing ordering (minimum degree on ``AᵀA``)
and the SuperLU-baseline column elimination tree both consume the pattern of
``AᵀA`` without its values.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix, INDEX_DTYPE
from repro.util.errors import ShapeError


def has_zero_free_diagonal(a: CSCMatrix) -> bool:
    """True when every diagonal position is in the stored pattern."""
    if not a.is_square:
        return False
    for j in range(a.n_cols):
        if not a.has_entry(j, j):
            return False
    return True


def ata_pattern(a: CSCMatrix) -> CSCMatrix:
    """Pattern of ``AᵀA`` as a pattern-only CSC matrix.

    Column ``j`` of ``AᵀA`` is the union of the rows of ``A`` hit by column
    ``j`` of ``A``: ``(AᵀA)_ij ≠ 0`` iff columns ``i`` and ``j`` of ``A``
    share a nonzero row. We build it row-by-row of ``A``: each row of ``A``
    with nonzero columns ``S`` contributes the clique ``S × S``. To avoid
    quadratic blow-up on dense rows we accumulate per-column unions.
    """
    from repro.sparse.convert import csc_to_csr

    at = csc_to_csr(a.pattern_only())
    n = a.n_cols
    cols: list[set[int]] = [set() for _ in range(n)]
    for i in range(a.n_rows):
        s = at.row_cols(i)
        if s.size == 0:
            continue
        members = s.tolist()
        for j in members:
            cols[j].update(members)
    nnz = sum(len(c) for c in cols)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(nnz, dtype=INDEX_DTYPE)
    pos = 0
    for j in range(n):
        arr = np.fromiter(cols[j], dtype=INDEX_DTYPE, count=len(cols[j]))
        arr.sort()
        indptr[j + 1] = indptr[j] + arr.size
        indices[pos : pos + arr.size] = arr
        pos += arr.size
    return CSCMatrix(n, n, indptr, indices, None, check=False)


def pattern_contains(outer: CSCMatrix, inner: CSCMatrix) -> bool:
    """True when every stored position of ``inner`` is stored in ``outer``."""
    if outer.shape != inner.shape:
        raise ShapeError(f"shape mismatch {outer.shape} vs {inner.shape}")
    for j in range(inner.n_cols):
        a = inner.col_rows(j)
        b = outer.col_rows(j)
        if a.size > b.size:
            return False
        if a.size and not np.all(np.isin(a, b, assume_unique=True)):
            return False
    return True


def pattern_equal(a: CSCMatrix, b: CSCMatrix) -> bool:
    """True when the two matrices store exactly the same positions."""
    return (
        a.shape == b.shape
        and a.nnz == b.nnz
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
    )

"""Sparsity-pattern algebra.

The symbolic half of the pipeline never looks at values; these helpers
manipulate patterns as arrays of sorted indices or as per-vertex neighbour
sets. The most important one is :func:`ata_adjacency`: the fill-reducing
orderings (minimum degree on ``AᵀA``) eliminate on its sets, and
:func:`ata_pattern`, its CSC rendering, feeds the SuperLU-baseline column
elimination tree.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.sparse.convert import csc_to_csr
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


def ata_adjacency(a: CSCMatrix) -> list[set[int]]:
    """Neighbour sets of the graph of ``AᵀA``, without the diagonal.

    ``(AᵀA)_ij ≠ 0`` iff columns ``i`` and ``j`` of ``A`` share a nonzero
    row, so each row of ``A`` with nonzero columns ``S`` contributes the
    clique ``S × S``. The rows are read as plain lists and every clique is
    folded into per-column sets, so a dense row costs one set union per
    member rather than a quadratic edge list. A row whose column set was
    already folded is skipped: finite-element matrices repeat one pattern
    per degree of freedom of a node (the goodwin analog has 469 distinct
    rows in 1 104). This is the one construction of ``AᵀA`` in the
    codebase: the minimum-degree orderings eliminate on these sets directly
    and :func:`ata_pattern` renders them as CSC.
    """
    at = csc_to_csr(a.pattern_only())
    ptr = at.indptr.tolist()
    cols = at.indices.tolist()
    adj: list[set[int]] = [set() for _ in range(a.n_cols)]
    folded: set[tuple[int, ...]] = set()
    for i in range(a.n_rows):
        lo, hi = ptr[i], ptr[i + 1]
        if hi - lo < 2:
            continue
        members = cols[lo:hi]
        key = tuple(members)
        if key in folded:
            continue
        folded.add(key)
        for j in members:
            adj[j].update(members)
    for j, s in enumerate(adj):
        s.discard(j)
    return adj


def symmetrized_adjacency(a: CSCMatrix) -> list[set[int]]:
    """Neighbour sets of the graph of ``A + Aᵀ``, without the diagonal.

    Entries are inserted column by column in ascending row order, so the
    sets (and hence their iteration order) are a pure function of the
    stored pattern.
    """
    ptr = a.indptr.tolist()
    rows = a.indices.tolist()
    adj: list[set[int]] = [set() for _ in range(a.n_cols)]
    for j in range(a.n_cols):
        aj = adj[j]
        for i in rows[ptr[j] : ptr[j + 1]]:
            if i != j:
                aj.add(i)
                adj[i].add(j)
    return adj


def ata_pattern(a: CSCMatrix) -> CSCMatrix:
    """Pattern of ``AᵀA`` as a pattern-only CSC matrix.

    The CSC rendering of :func:`ata_adjacency` plus the diagonal entry of
    every nonempty column of ``A`` (an empty column has ``(AᵀA)_jj = 0``).
    """
    n = a.n_cols
    adj = ata_adjacency(a)
    for j in np.flatnonzero(np.diff(a.indptr)).tolist():
        adj[j].add(j)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(list(map(len, adj)), out=indptr[1:])
    indices = np.fromiter(
        chain.from_iterable(map(sorted, adj)), dtype=INDEX_DTYPE, count=int(indptr[-1])
    )
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

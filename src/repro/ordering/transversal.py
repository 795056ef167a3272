"""Maximum transversal (zero-free diagonal) via augmenting paths.

The static symbolic factorization assumes ``A`` has a zero-free diagonal; the
paper notes (citing Duff's MC21) that a nonsingular matrix can always be row-
permuted to achieve one. This module implements the bipartite-matching view
of MC21: columns are matched to rows along augmenting paths.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.util.errors import ShapeError, StructurallySingularError


def _augment(
    ptr: list[int], rows: list[int], j0: int, match_row: list[int], match_col: list[int]
) -> bool:
    """Try to match column ``j0`` with an iterative alternating-path DFS.

    The pattern comes as plain ``indptr`` / ``indices`` lists. ``via[r]``
    records the column whose scan discovered row ``r``; when a free row is
    found, the alternating path is rewound through ``via`` and every column
    on it swaps to the next row down the path. ``scan_pos[j]`` is the next
    position of ``rows`` that column ``j``'s scan reads.
    """
    via: dict[int, int] = {}
    scan_pos: dict[int, int] = {j0: ptr[j0]}
    stack = [j0]
    while stack:
        j = stack[-1]
        k, end = scan_pos[j], ptr[j + 1]
        while k < end:
            r = rows[k]
            k += 1
            if r in via:
                continue
            via[r] = j
            owner = match_col[r]
            if owner == -1:
                # Free row: augment along the alternating path back to j0.
                while True:
                    c = via[r]
                    prev_r = match_row[c]
                    match_col[r] = c
                    match_row[c] = r
                    if prev_r == -1:
                        return True
                    r = prev_r
            if owner not in scan_pos:
                scan_pos[j] = k
                scan_pos[owner] = ptr[owner]
                stack.append(owner)
                break
        else:
            stack.pop()
    return False


def maximum_transversal(a: CSCMatrix) -> np.ndarray:
    """Match each column to a distinct row with a stored entry.

    Returns ``match_row`` of length ``n_cols`` where ``match_row[j]`` is the
    row matched to column ``j`` (``-1`` when the maximum matching leaves the
    column unmatched, i.e. the matrix is structurally singular).

    This is Kuhn's augmenting-path algorithm with the "cheap assignment"
    first pass of MC21; worst case ``O(n * nnz)``. Both passes run on plain
    lists: one ndarray element read per step would cost more than the step.
    """
    ptr = a.indptr.tolist()
    rows = a.indices.tolist()
    match_row = [-1] * a.n_cols  # column -> row
    match_col = [-1] * a.n_rows  # row -> column

    # Cheap pass: take the first free row of each column.
    for j in range(a.n_cols):
        for i in rows[ptr[j] : ptr[j + 1]]:
            if match_col[i] == -1:
                match_col[i] = j
                match_row[j] = i
                break

    for j in range(a.n_cols):
        if match_row[j] == -1:
            _augment(ptr, rows, j, match_row, match_col)
    return np.array(match_row, dtype=np.int64)


def zero_free_diagonal_permutation(a: CSCMatrix) -> np.ndarray:
    """Row permutation (old row -> new row) giving a zero-free diagonal.

    After ``permute(a, row_perm=p)`` every diagonal entry is stored. Raises
    :class:`StructurallySingularError` when no transversal exists.
    """
    if not a.is_square:
        raise ShapeError("zero-free diagonal requires a square matrix")
    match_row = maximum_transversal(a)
    unmatched = np.nonzero(match_row == -1)[0]
    if unmatched.size:
        raise StructurallySingularError(
            f"structurally singular: column(s) {unmatched[:5].tolist()} have no "
            "transversal"
        )
    # Row match_row[j] must end up at position j.
    perm = np.empty(a.n_rows, dtype=np.int64)
    perm[match_row] = np.arange(a.n_cols)
    return perm

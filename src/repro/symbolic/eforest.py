"""LU elimination forest (paper Definition 1).

For the statically-filled matrix ``Ā``: node ``k`` is the parent of ``j``
iff ``k = min{ r > j : ū_jr ≠ 0 }`` *and* column ``j`` of ``L̄`` has
off-diagonal entries (``|L̄_*j| > 1``). Nodes whose ``L̄`` column is a lone
diagonal are roots, which is what makes this a forest rather than a tree.

The *extended* eforest of Figure 1 additionally annotates each node with the
first nonzero of its ``L̄`` row (the deepest node of the row's branch) and
exposes subtree queries used by the Theorem 1-2 characterization and by the
task-graph construction.

The forest itself is built once, by the George-Ng merge that computes
``Ā`` (:attr:`repro.symbolic.static_fill.StaticFill.parent`); every later
stage reads it from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ordering.etree import forest_children, postorder_forest
from repro.symbolic.static_fill import StaticFill


def lu_elimination_forest_reference(fill: StaticFill) -> np.ndarray:
    """Definition 1 read off the finished pattern, row by row: the oracle
    of ``fill.parent``, which the merge emits (no request path calls it;
    the tests and the verifiers do)."""
    n = fill.n
    parent = np.full(n, -1, dtype=np.int64)
    u_rows = fill.u_rows()
    for j in range(n):
        # |L̄_*j| > 1 ⇔ column j has entries strictly below the diagonal.
        col = fill.pattern.col_rows(j)
        if not np.any(col > j):
            continue
        row = u_rows[j]
        after = row[row > j]
        if after.size:
            parent[j] = int(after[0])
    return parent


@dataclass
class ExtendedEForest:
    """LU eforest with postorder numbering and the Figure 1 annotations.

    Attributes
    ----------
    parent:
        Parent array (``-1`` for roots).
    first_l_in_row:
        ``first_l_in_row[i]`` = smallest column index of row ``i`` of ``L̄``
        (the left italics of Figure 1; equals ``i`` when row ``i`` of ``L̄``
        is a lone diagonal).
    """

    parent: np.ndarray
    first_l_in_row: np.ndarray
    children: list[list[int]] = field(repr=False)
    _post: np.ndarray = field(repr=False)
    _size: np.ndarray = field(repr=False)

    def is_ancestor(self, a: int, d: int) -> bool:
        """True when ``a`` is an ancestor of ``d`` (or ``a == d``): a
        postorder numbers ``T[a]`` ``post[a] - |T[a]| + 1 .. post[a]``."""
        return bool(0 <= self._post[a] - self._post[d] < self._size[a])


def extended_eforest(fill: StaticFill) -> ExtendedEForest:
    """Build the extended eforest of ``Ā`` with postorder numbering."""
    parent = fill.parent
    n = parent.size
    size = np.ones(n, dtype=np.int64)
    for v, p in enumerate(parent.tolist()):  # Definition 1: p > v
        if p >= 0:
            size[p] += size[v]

    # Left italics of Figure 1: first L̄ nonzero per row — the column of the
    # first strictly-lower entry of each row in CSC entry order (columns
    # ascend, so the first occurrence per row is the minimum column).
    first_l = np.arange(n, dtype=np.int64)
    pat = fill.pattern
    entry_rows = pat.indices.astype(np.int64, copy=False)
    entry_cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(pat.indptr))
    lower = entry_rows > entry_cols
    rows_l = entry_rows[lower]
    cols_l = entry_cols[lower]
    first_l[rows_l[::-1]] = cols_l[::-1]  # first (minimum) column wins

    return ExtendedEForest(
        parent=parent,
        first_l_in_row=first_l,
        children=forest_children(parent),
        _post=postorder_forest(parent),
        _size=size,
    )

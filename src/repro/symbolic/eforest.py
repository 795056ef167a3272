"""LU elimination forest (paper Definition 1).

For the statically-filled matrix ``Ā``: node ``k`` is the parent of ``j``
iff ``k = min{ r > j : ū_jr ≠ 0 }`` *and* column ``j`` of ``L̄`` has
off-diagonal entries (``|L̄_*j| > 1``). Nodes whose ``L̄`` column is a lone
diagonal are roots, which is what makes this a forest rather than a tree.

The *extended* eforest of Figure 1 additionally annotates each node with the
first nonzero of its ``L̄`` row (the deepest node of the row's branch) and
exposes subtree queries used by the Theorem 1-2 characterization and by the
task-graph construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ordering.etree import forest_children, forest_roots
from repro.symbolic.static_fill import StaticFill


def lu_elimination_forest_reference(fill: StaticFill) -> np.ndarray:
    """Per-row reference implementation (the property-test oracle; no
    selector reaches it)."""
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


def lu_elimination_forest(fill: StaticFill) -> np.ndarray:
    """Parent array of the LU eforest of ``Ā`` (``-1`` marks roots).

    Vectorized parent extraction, one pass over the flat entry arrays
    (:func:`lu_elimination_forest_reference` is its oracle).

    ``parent[j] = min{ r > j : ū_jr ≠ 0 }`` is the column of the *first*
    strictly-upper entry of row ``j`` in CSC entry order (columns ascend, so
    the first occurrence per row is the minimum column). Scattering the
    entries in reverse order makes the first occurrence the one that
    sticks — no sort at all. The ``|L̄_*j| > 1`` gate is a boolean scatter
    from the strictly-lower entries.
    """
    pat = fill.pattern
    n = fill.n
    parent = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return parent
    entry_rows = pat.indices.astype(np.int64, copy=False)
    entry_cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(pat.indptr))

    has_below = np.zeros(n, dtype=bool)
    has_below[entry_cols[entry_rows > entry_cols]] = True

    upper = entry_cols > entry_rows  # strictly upper entries of Ū
    rows_u = entry_rows[upper]
    cols_u = entry_cols[upper]
    parent[rows_u[::-1]] = cols_u[::-1]  # first (minimum) column wins
    parent[~has_below] = -1
    return parent


@dataclass
class ExtendedEForest:
    """LU eforest with DFS numbering and the Figure 1 annotations.

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
    _pre: np.ndarray = field(repr=False)
    _post: np.ndarray = field(repr=False)

    def is_ancestor(self, a: int, d: int) -> bool:
        """True when ``a`` is an ancestor of ``d`` (or ``a == d``)."""
        return bool(self._pre[a] <= self._pre[d] and self._post[a] >= self._post[d])


def extended_eforest(fill: StaticFill) -> ExtendedEForest:
    """Build the extended eforest of ``Ā`` with DFS numbering."""
    parent = lu_elimination_forest(fill)
    n = parent.size
    children = forest_children(parent)

    pre = np.empty(n, dtype=np.int64)
    post = np.empty(n, dtype=np.int64)
    clock = 0
    for root in forest_roots(parent):
        stack: list[tuple[int, int]] = [(int(root), 0)]
        pre[root] = clock
        clock += 1
        while stack:
            node, next_child = stack.pop()
            if next_child < len(children[node]):
                stack.append((node, next_child + 1))
                child = children[node][next_child]
                pre[child] = clock
                clock += 1
                stack.append((child, 0))
            else:
                post[node] = clock
                clock += 1

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
        children=children,
        _pre=pre,
        _post=post,
    )

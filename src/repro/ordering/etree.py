"""Column elimination tree and generic forest utilities.

SuperLU (the paper's shared-memory comparator) postorders the *column
elimination tree* — the elimination tree of ``AᵀA`` — whereas the paper
postorders the LU elimination forest of ``Ā``. This module provides the
column etree (Liu's path-compression algorithm, computed from ``A`` without
forming ``AᵀA``) and the forest primitives (postorder, roots, children,
depths) shared by both tree kinds.

Forests are represented as a ``parent`` array with ``parent[r] = -1`` for
roots, the representation used throughout :mod:`repro.symbolic`.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.util.errors import ShapeError


def column_etree(a: CSCMatrix, *, compress: bool = True) -> np.ndarray:
    """Elimination tree of ``AᵀA`` computed directly from ``A``.

    This is Liu's algorithm (the ``cs_etree`` variant with ``ata=True``):
    for column ``k`` and each row ``i`` of ``A_{*k}``, walk from the
    previously seen column of row ``i`` up the virtual forest, attaching
    roots below ``k``.

    With ``compress=True`` (the default) the walk runs over a separate
    ``ancestor`` array that is fully compressed as a side effect — every
    visited node is re-pointed directly at ``k``, which is strictly stronger
    than path halving and keeps the walk near-linear overall. With
    ``compress=False`` the walk follows raw parent chains, which is
    quadratic on chain-shaped etrees; it exists as the before/after baseline
    for ``benchmarks/bench_symbolic.py``. Both return identical trees.

    Returns the ``parent`` array (``-1`` marks roots).
    """
    if not a.is_square:
        raise ShapeError("column etree requires a square matrix")
    n = a.n_cols
    parent = np.full(n, -1, dtype=np.int64)
    prev_col = np.full(a.n_rows, -1, dtype=np.int64)  # last column seen per row
    if compress:
        ancestor = np.full(n, -1, dtype=np.int64)  # path-compressed ancestors
        for k in range(n):
            for r in a.col_rows(k):
                i = int(prev_col[r])
                while i != -1 and i < k:
                    inext = int(ancestor[i])
                    ancestor[i] = k
                    if inext == -1:
                        parent[i] = k
                    i = inext
                prev_col[r] = k
    else:
        for k in range(n):
            for r in a.col_rows(k):
                i = int(prev_col[r])
                while i != -1 and i < k:
                    inext = int(parent[i])
                    if inext == -1:
                        parent[i] = k
                    i = inext
                prev_col[r] = k
    return parent


def forest_roots(parent: np.ndarray) -> np.ndarray:
    """Indices ``r`` with ``parent[r] == -1``, ascending."""
    return np.nonzero(np.asarray(parent) == -1)[0]


def forest_children_arrays(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Children in flat CSR-like form: ``(child_ptr, child_list)``.

    Children of ``v`` are ``child_list[child_ptr[v]:child_ptr[v + 1]]``,
    ascending. Built in one vectorized pass (stable argsort groups children
    by parent while preserving ascending child order).
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    order = np.argsort(parent, kind="stable")  # roots (-1) sort first
    n_roots = int(np.count_nonzero(parent < 0))
    child_list = order[n_roots:]
    child_ptr = np.zeros(n + 1, dtype=np.int64)
    if n:
        counts = np.bincount(parent[parent >= 0], minlength=n)
        np.cumsum(counts, out=child_ptr[1:])
    return child_ptr, child_list


def forest_children(parent: np.ndarray) -> list[list[int]]:
    """Children lists, each sorted ascending."""
    child_ptr, child_list = forest_children_arrays(parent)
    flat = child_list.tolist()
    ptr = child_ptr.tolist()
    return [flat[ptr[v] : ptr[v + 1]] for v in range(len(ptr) - 1)]


def postorder_forest(parent: np.ndarray) -> np.ndarray:
    """Postorder permutation of a forest.

    Returns ``perm`` mapping old label to new label such that every node's
    new label is smaller than its parent's (children precede parents), with
    subtrees kept contiguous. Children are visited in ascending old-label
    order and trees in ascending root order, so an already-postordered
    forest maps to the identity.
    """
    parent = np.asarray(parent)
    n = parent.size
    child_ptr, child_list = forest_children_arrays(parent)
    flat = child_list.tolist()
    ptr = child_ptr.tolist()
    perm = np.empty(n, dtype=np.int64)
    label = 0
    for root in forest_roots(parent).tolist():
        # Iterative DFS over plain-int stacks, emitting nodes on the way
        # *out* (postorder); cursor[v] tracks the next unvisited child.
        stack = [root]
        cursor = [ptr[root]]
        while stack:
            node = stack[-1]
            c = cursor[-1]
            if c < ptr[node + 1]:
                cursor[-1] = c + 1
                child = flat[c]
                stack.append(child)
                cursor.append(ptr[child])
            else:
                perm[node] = label
                label += 1
                stack.pop()
                cursor.pop()
    assert label == n
    return perm


def relabel_forest(parent: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Parent array of the forest after relabeling nodes by ``perm``."""
    parent = np.asarray(parent, dtype=np.int64)
    perm = np.asarray(perm, dtype=np.int64)
    new_parent = np.empty(parent.size, dtype=np.int64)
    # perm[parent] wraps around for roots (parent == -1); the where() mask
    # discards those lanes, so the wrapped values are never used.
    new_parent[perm] = np.where(parent >= 0, perm[parent], -1)
    return new_parent


def is_forest_permutation_topological(parent: np.ndarray, perm: np.ndarray) -> bool:
    """True when ``perm`` labels every node before its parent.

    This is the defining property of the paper's postorder (§3): after
    relabeling, ``new_label(child) < new_label(parent)`` for every edge.
    """
    parent = np.asarray(parent)
    perm = np.asarray(perm)
    for v in range(parent.size):
        p = int(parent[v])
        if p >= 0 and perm[v] >= perm[p]:
            return False
    return True

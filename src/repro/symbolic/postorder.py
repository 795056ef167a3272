"""Postordering the LU eforest (paper §3).

Relabel the columns (and rows, symmetrically, to preserve the zero-free
diagonal) so that every node is numbered before its parent and subtrees stay
contiguous. Theorem 3: the static symbolic factorization is invariant under
this permutation — only node labels change, so the postordered matrix can be
factored with exactly the same fill while its supernodes become larger and
``PᵀĀP`` is block upper triangular with one diagonal block per eforest tree.

Two implementations are provided, as in the paper:

* :func:`postorder_pipeline` — the depth-first-search postorder the authors
  "preferred to code ... for the ease of implementation". Production path.
* :func:`paper_postorder_interchanges` — the adjacent row/column interchange
  algorithm of §3 (the ``postorder(R₁,...,Rₙ)`` pseudo-code), which realizes
  the same relabeling as a sequence of ``(x, x+1)`` transpositions. It is
  O(n²) swaps in the worst case and exists for fidelity and for the unit
  tests that check both approaches yield valid postorders of the same
  forest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ordering.etree import (
    forest_children_arrays,
    forest_roots,
    is_forest_permutation_topological,
    postorder_forest,
    relabel_forest,
)
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import permute
from repro.symbolic.dispatch import resolve_impl
from repro.symbolic.static_fill import StaticFill
from repro.util.errors import PatternError


@dataclass
class PostorderResult:
    """Outcome of the §3 postordering step.

    Attributes
    ----------
    perm:
        Symmetric permutation, old label → new label.
    fill:
        The permuted static fill ``PᵀĀP`` (Theorem 3: identical nnz); its
        ``parent`` is the input's eforest under the new labels.
    blocks:
        Diagonal blocks ``(start, stop)`` of the block upper triangular
        decomposition — one per eforest tree, in label order.
    """

    perm: np.ndarray
    fill: StaticFill
    blocks: list[tuple[int, int]]


def postorder_pipeline(
    fill: StaticFill, *, impl: Optional[str] = None
) -> PostorderResult:
    """DFS-postorder the LU eforest of ``fill`` and permute symmetrically.

    ``impl`` accepts only ``"fast"`` (any other name raises
    :class:`~repro.util.errors.DispatchError`): the staged pass of
    ``benchmarks/e2e/traced.py`` passes the
    :func:`~repro.symbolic.dispatch.resolve_impl` name through it.
    """
    if impl is not None:
        resolve_impl(impl)
    perm = postorder_forest(fill.parent)
    new_fill = StaticFill(
        pattern=permute(fill.pattern, row_perm=perm, col_perm=perm),
        nnz_original=fill.nnz_original,
        parent=relabel_forest(fill.parent, perm),
    )
    blocks = block_upper_triangular_blocks(new_fill.parent)
    return PostorderResult(perm=perm, fill=new_fill, blocks=blocks)


def block_upper_triangular_blocks(parent_postordered: np.ndarray) -> list[tuple[int, int]]:
    """Diagonal blocks of ``PᵀĀP``: the trees of the postordered eforest.

    After a postorder every tree occupies the contiguous label range
    ``[root - |T[root]| + 1, root]``; entries of ``L̄`` stay inside a tree
    (the branch property) so cross-tree entries are upper-triangular only.
    Returns half-open ``(start, stop)`` ranges covering ``0..n``.
    """
    parent = np.asarray(parent_postordered)
    n = parent.size
    sizes = np.ones(n, dtype=np.int64)
    for v in range(n):  # children have smaller labels: one ascending pass
        p = int(parent[v])
        if p >= 0:
            sizes[p] += sizes[v]
    blocks = []
    for root in forest_roots(parent):
        start = int(root) - int(sizes[root]) + 1
        blocks.append((start, int(root) + 1))
    blocks.sort()
    # Validate the cover (a non-postordered parent array would fail here).
    pos = 0
    for start, stop in blocks:
        if start != pos or stop <= start:
            raise PatternError(
                "parent array is not postordered: trees are not contiguous"
            )
        pos = stop
    if pos != n:
        raise PatternError("blocks do not cover the matrix")
    return blocks


def is_block_upper_triangular(pattern: CSCMatrix, blocks: list[tuple[int, int]]) -> bool:
    """True when all entries below the block diagonal are absent."""
    block_of = np.empty(pattern.n_cols, dtype=np.int64)
    for b, (start, stop) in enumerate(blocks):
        block_of[start:stop] = b
    for j in range(pattern.n_cols):
        rows = pattern.col_rows(j)
        if rows.size and np.any(block_of[rows] > block_of[j]):
            return False
    return True


def paper_postorder_interchanges(parent: np.ndarray) -> np.ndarray:
    """The §3 adjacent-interchange postorder, returning old→new labels.

    Processes trees in descending root order; within the current subtree it
    repeatedly finds the largest member label ``x`` whose successor ``x+1``
    is a non-member below the root and swaps the two labels — an adjacent
    row+column interchange on the matrix — until the subtree is contiguous,
    then recurses into the children. Each swap preserves the forest (child
    labels stay below parent labels), mirroring the candidate-pivot-row
    argument in the proof of Theorem 3.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    # Work on node identities; only labels move.
    label_of = np.arange(n, dtype=np.int64)  # node -> current label
    node_at = np.arange(n, dtype=np.int64)  # label -> node

    child_ptr, child_list = forest_children_arrays(parent)

    # Subtree membership never changes (only labels move), so one DFS over
    # the input forest fixes it for good: the subtree of ``v`` is the
    # preorder interval ``[tin[v], tin[v] + size[v])``.
    tin = np.empty(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    flat = child_list.tolist()
    ptr = child_ptr.tolist()
    clock = 0
    for root in forest_roots(parent).tolist():
        dfs = [root]
        cursor = [ptr[root]]
        tin[root] = clock
        clock += 1
        while dfs:
            v = dfs[-1]
            c = cursor[-1]
            if c < ptr[v + 1]:
                cursor[-1] = c + 1
                child = flat[c]
                tin[child] = clock
                clock += 1
                dfs.append(child)
                cursor.append(ptr[child])
            else:
                dfs.pop()
                cursor.pop()
                if parent[v] >= 0:
                    size[parent[v]] += size[v]

    def normalize(node: int) -> None:
        """Apply the net effect of the §3 bubbling loop for one subtree.

        The original loop repeatedly swaps the largest member label whose
        successor is a non-member below the root — each swap an adjacent
        member/non-member transposition, so the relative order on each side
        is preserved. Its unique fixed point packs the members into
        ``[root - |T| + 1, root]`` with non-members slid below, which we
        write in one vectorized pass instead of swap by swap.
        """
        sz = int(size[node])
        root_label = int(label_of[node])
        target_lo = root_label - sz + 1
        members = pre_nodes[tin[node] : tin[node] + sz]
        lo = int(label_of[members].min()) if sz > 1 else root_label
        if lo == target_lo:
            return  # already contiguous: the bubbling loop finds no gaps
        seg = node_at[lo : root_label + 1]
        t = tin[seg]
        member_mask = (t >= tin[node]) & (t < tin[node] + sz)
        new_seg = np.concatenate([seg[~member_mask], seg[member_mask]])
        node_at[lo : root_label + 1] = new_seg
        label_of[new_seg] = np.arange(lo, root_label + 1, dtype=np.int64)

    # Explicit work stack mirroring the original recursion: a node is
    # normalized when popped, then its children are queued in descending
    # current-label order (evaluated at that moment, as the recursive
    # version did) so the largest-label child is fully processed first.
    pre_nodes = np.empty(n, dtype=np.int64)  # preorder position -> node
    pre_nodes[tin] = np.arange(n, dtype=np.int64)
    work = sorted(forest_roots(parent).tolist(), key=lambda r: label_of[r])
    while work:
        node = work.pop()
        normalize(node)
        kids = flat[ptr[node] : ptr[node + 1]]
        kids.sort(key=lambda c: label_of[c])  # max label pops (runs) first
        work.extend(kids)

    perm = label_of.copy()
    if not is_forest_permutation_topological(parent, perm):
        raise PatternError("interchange postorder produced a non-topological order")
    return perm

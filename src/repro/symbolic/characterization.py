"""Eforest characterization of the ``L̄``/``Ū`` factors (paper §2).

Two facts drive everything downstream:

* **Rows of L̄ are branches** (George & Ng, the paper's [7]): the structure
  of row ``i`` of ``L̄`` is exactly the eforest path from its first nonzero
  column up to ``i``. One integer per row encodes the whole row.
* **Columns of Ū are unions of root-containing subtrees** (Theorems 1-2):
  the structure of column ``j`` of ``Ū`` is closed under taking ancestors
  (while their label stays ``< j``), so it decomposes into a connected region
  of ``T[j]`` containing ``j`` plus connected regions containing roots
  ``k < j``. Its minimal elements (leaves) encode the whole column.

This yields the compact storage scheme the paper mentions as an aside:
:class:`CompactFactorStorage` stores one integer per ``L̄`` row and the leaf
lists per ``Ū`` column, and reconstructs both patterns exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.symbolic.eforest import ExtendedEForest
from repro.symbolic.static_fill import StaticFill
from repro.util.errors import PatternError


def l_row_structure_from_forest(forest: ExtendedEForest, i: int) -> np.ndarray:
    """Structure of row ``i`` of ``L̄`` predicted by the branch property.

    The eforest path from ``first_l_in_row[i]`` up to and including ``i``,
    sorted ascending.
    """
    start = int(forest.first_l_in_row[i])
    out = []
    v = start
    while v != -1 and v <= i:
        out.append(v)
        if v == i:
            break
        v = int(forest.parent[v])
    if not out or out[-1] != i:
        raise PatternError(
            f"branch from {start} does not reach {i}; forest/fill inconsistent"
        )
    return np.asarray(out, dtype=np.int64)


def u_col_structure_from_forest(
    forest: ExtendedEForest, leaves: np.ndarray, j: int
) -> np.ndarray:
    """Structure of column ``j`` of ``Ū`` reconstructed from its leaf set.

    Walks from every leaf toward the root, collecting nodes while their
    label is ``< j``, and always includes the diagonal ``j``.
    """
    out = {int(j)}
    for leaf in np.asarray(leaves, dtype=np.int64):
        v = int(leaf)
        while v != -1 and v < j:
            out.add(v)
            v = int(forest.parent[v])
        if v != -1 and v != j and v < j:  # pragma: no cover - defensive
            raise PatternError("leaf chain escaped the column subtree")
    return np.asarray(sorted(out), dtype=np.int64)


def column_leaves(forest: ExtendedEForest, members: np.ndarray) -> np.ndarray:
    """Minimal elements of ``members`` w.r.t. the forest ancestor order.

    ``members`` must be ancestor-closed below its column index (Theorem 1);
    the leaves are the members none of whose children is a member.
    """
    member_set = set(int(m) for m in members)
    leaves = [
        m
        for m in member_set
        if not any(c in member_set for c in forest.children[m])
    ]
    return np.asarray(sorted(leaves), dtype=np.int64)


def verify_theorem1(fill: StaticFill, forest: ExtendedEForest) -> bool:
    """Check Theorem 1 on every stored ``Ū`` entry.

    If ``ū_ij ≠ 0`` then ``ū_kj ≠ 0`` for every ancestor ``k`` of ``i`` with
    ``k < j``.
    """
    u = fill.u_pattern()
    for j in range(fill.n):
        members = set(int(i) for i in u.col_rows(j))
        for i in list(members):
            k = int(forest.parent[i])
            while k != -1 and k < j:
                if k not in members:
                    return False
                k = int(forest.parent[k])
    return True


def verify_theorem2(fill: StaticFill, forest: ExtendedEForest) -> bool:
    """Check Theorem 2 on every stored ``Ū`` entry.

    If ``ū_ij ≠ 0`` then ``i ∈ T[j]``, or ``i ∈ T[k]`` for an eforest root
    ``k < j``.
    """
    u = fill.u_pattern()
    for j in range(fill.n):
        for i in u.col_rows(j):
            i = int(i)
            if i == j or forest.is_ancestor(j, i):
                continue
            root = i
            while forest.parent[root] != -1:
                root = int(forest.parent[root])
            if root >= j:
                return False
    return True


@dataclass
class CompactFactorStorage:
    """Compact eforest-based encoding of the ``L̄``/``Ū`` patterns (§2 aside).

    ``l_first[i]`` encodes row ``i`` of ``L̄`` (branch property); ``u_leaves
    [j]`` encodes column ``j`` of ``Ū`` (its minimal elements). Together with
    the forest itself this reproduces the full ``Ā`` pattern, typically in
    far fewer integers than the pattern's nnz.
    """

    forest: ExtendedEForest
    l_first: np.ndarray
    u_leaves: list[np.ndarray]

    @classmethod
    def encode(cls, fill: StaticFill, forest: ExtendedEForest) -> "CompactFactorStorage":
        u = fill.u_pattern()
        u_leaves = [
            column_leaves(forest, u.col_rows(j)) for j in range(fill.n)
        ]
        return cls(
            forest=forest,
            l_first=forest.first_l_in_row.copy(),
            u_leaves=u_leaves,
        )

    @property
    def n(self) -> int:
        return self.l_first.size

    @property
    def storage_ints(self) -> int:
        """Integers stored (rows + leaf lists), excluding the parent array."""
        return self.n + sum(arr.size for arr in self.u_leaves)

    def decode_l_row(self, i: int) -> np.ndarray:
        out = []
        v = int(self.l_first[i])
        while v != -1 and v <= i:
            out.append(v)
            if v == i:
                break
            v = int(self.forest.parent[v])
        return np.asarray(out, dtype=np.int64)

    def decode_u_col(self, j: int) -> np.ndarray:
        return u_col_structure_from_forest(self.forest, self.u_leaves[j], j)

    def decode_pattern(self) -> "np.ndarray | object":
        """Reconstruct the full ``Ā`` pattern as a CSC matrix."""
        from repro.sparse.csc import CSCMatrix, INDEX_DTYPE

        n = self.n
        cols: list[set[int]] = [set() for _ in range(n)]
        for i in range(n):
            for j in self.decode_l_row(i):
                cols[int(j)].add(i)
        for j in range(n):
            for i in self.decode_u_col(j):
                cols[j].add(int(i))
        indptr = np.zeros(n + 1, dtype=np.int64)
        chunks = []
        for j in range(n):
            arr = np.asarray(sorted(cols[j]), dtype=INDEX_DTYPE)
            chunks.append(arr)
            indptr[j + 1] = indptr[j] + arr.size
        indices = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=INDEX_DTYPE)
        )
        return CSCMatrix(n, n, indptr, indices, None, check=False)

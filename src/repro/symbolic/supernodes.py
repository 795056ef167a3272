"""L/U supernode partitioning and amalgamation (paper §3, following S+).

After static symbolic factorization (and optionally postordering) the columns
are grouped into *unsymmetric supernodes*: maximal runs of consecutive
columns whose ``L̄`` structures are identical below the run (each column's
lower structure equals the next column's plus its own diagonal row). The same
partition is then applied to the rows, cutting the matrix into ``N x N``
submatrix blocks ``B̄`` — dense enough for BLAS-3 — which is the unit of the
paper's task model (``Factor(k)``/``Update(k, j)``).

Because naturally-occurring supernodes are small ("2 or 3 columns"), the
paper applies *amalgamation*: adjacent supernodes are merged when the padding
zeros introduced stay under a relative tolerance, trading a little extra
arithmetic for larger BLAS-3 blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ordering.etree import postorder_forest
from repro.sparse.csc import INDEX_DTYPE
from repro.symbolic.static_fill import StaticFill
from repro.util.errors import DispatchError, PatternError


@dataclass
class SupernodePartition:
    """A partition of ``0..n`` into consecutive column (and row) groups.

    ``starts`` has length ``n_supernodes + 1`` with ``starts[0] == 0`` and
    ``starts[-1] == n``; supernode ``s`` spans columns
    ``starts[s]:starts[s+1]``.
    """

    starts: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.starts, dtype=np.int64)
        if s.size < 1 or s[0] != 0 or np.any(np.diff(s) <= 0):
            raise PatternError(f"invalid supernode boundaries {s!r}")
        self.starts = s

    @property
    def n_supernodes(self) -> int:
        return self.starts.size - 1

    @property
    def n(self) -> int:
        return int(self.starts[-1])

    def sizes(self) -> np.ndarray:
        return np.diff(self.starts)

    def span(self, s: int) -> tuple[int, int]:
        return int(self.starts[s]), int(self.starts[s + 1])

    def member_of(self) -> np.ndarray:
        """Array mapping column index to its supernode index."""
        return np.repeat(np.arange(self.n_supernodes, dtype=np.int64), self.sizes())

    def mean_size(self) -> float:
        return float(self.n) / max(1, self.n_supernodes)


def _column_ids(fill: StaticFill) -> np.ndarray:
    """Column index of every stored entry of ``Ā``, in CSC order."""
    return np.repeat(np.arange(fill.n, dtype=INDEX_DTYPE), np.diff(fill.pattern.indptr))


def supernode_partition(fill: StaticFill) -> SupernodePartition:
    """Partition columns of ``Ā`` into unsymmetric supernodes.

    Column ``j+1`` joins column ``j``'s supernode iff the below-diagonal
    structure of ``L̄_{*j}`` equals that of ``L̄_{*j+1}`` plus row ``j+1``'s
    own slot, i.e. ``struct(L̄_*j) \\ {j} == struct(L̄_*(j+1))`` — the dense-
    diagonal-block rule of SuperLU/S+ specialized to the static pattern.
    One pass over the entries: column counts of ``L̄`` select the candidate
    pairs, one shifted comparison of the row indices confirms them.
    """
    n = fill.n
    if n == 0:
        return SupernodePartition(starts=np.array([0], dtype=np.int64))
    cols = _column_ids(fill)
    lower = fill.pattern.indices >= cols
    low_rows = fill.pattern.indices[lower].astype(np.int64)
    low_cols = cols[lower]
    count = np.bincount(low_cols, minlength=n)  # |struct(L̄_*j)|, diagonal in
    first = np.cumsum(count) - count
    has_diag = count > 0
    has_diag[has_diag] = low_rows[first[has_diag]] == np.flatnonzero(has_diag)
    # With ``count[j-1] == count[j] + 1`` the k-th row of column j lines up
    # with the (k+1)-th of column j-1, ``count[j]`` entries back.
    back = np.arange(low_rows.size) - count[low_cols]
    differs = low_rows != low_rows[np.maximum(back, 0)]
    mismatch = np.bincount(low_cols[differs], minlength=n) > 0
    joins = (count[:-1] == count[1:] + 1) & has_diag[:-1] & has_diag[1:]
    joins &= ~mismatch[1:]
    starts = np.concatenate([[0], np.flatnonzero(~joins) + 1, [n]])
    return SupernodePartition(starts=starts)


def _padding_cost(fill: StaticFill, lo: int, hi: int) -> tuple[int, int]:
    """(stored, padded) entry counts of the L part if ``lo:hi`` is one supernode.

    Merging columns ``lo..hi-1`` stores, for every column, the union of the
    below-diagonal rows of the group; ``padded`` counts introduced explicit
    zeros.
    """
    pattern = fill.pattern
    rows = pattern.indices[pattern.indptr[lo] : pattern.indptr[hi]]
    rows = rows[rows >= lo]
    stored = int(rows.size)
    return stored, int(np.unique(rows).size) * (hi - lo) - stored


def amalgamate(
    fill: StaticFill,
    partition: SupernodePartition,
    *,
    max_padding: float = 0.25,
    max_size: int = 48,
) -> SupernodePartition:
    """Merge adjacent supernodes while padding stays under ``max_padding``.

    Greedy left-to-right: a supernode absorbs its right neighbour when the
    merged group's explicit-zero fraction (within its L block columns) does
    not exceed ``max_padding`` and the merged width stays ``≤ max_size``.
    Deterministic, so Table 3 rows are stable.

    The greedy may glue columns that are unrelated in the eforest, and the
    §4 graph orders conflicting tasks only along eforest paths. Groups
    whose conflicts the block eforest of the merged partition leaves
    unordered (:func:`_unordered_groups`) are cut back to the chains of
    :func:`amalgamate_chains` until none is left: a chain behaves as its
    last column does, so a partition into chains is a quotient of ``Ā``
    along eforest paths, which the graph is built for.
    """
    entries = _entries(fill)
    merged = _greedy_merge(fill, partition, False, max_padding, max_size, entries)
    cuts = None
    while (bad := _unordered_groups(fill, merged, entries)).size:
        if cuts is None:
            cuts = _greedy_merge(
                fill, partition, True, max_padding, max_size, entries
            ).starts[:-1]
        in_bad = np.isin(merged.member_of()[cuts], bad)
        if np.isin(cuts[in_bad], merged.starts).all():  # a chain cannot be unordered
            raise PatternError(f"eforest chains {bad.tolist()} leave a conflict unordered")
        merged = SupernodePartition(starts=np.union1d(merged.starts, cuts[in_bad]))
    return merged


def amalgamate_chains(
    fill: StaticFill,
    partition: SupernodePartition,
    *,
    max_padding: float = 0.25,
    max_size: int = 48,
) -> SupernodePartition:
    """Eforest-guided amalgamation: merge only along parent chains.

    The classical *relaxed supernode* rule from multifrontal codes: two
    adjacent supernodes may merge only when the eforest parent of the left
    group's last column is the right group's first column — i.e. the merge
    follows a tree edge, so the combined group is a path segment of the
    forest. Compared to the unrestricted greedy
    (:func:`amalgamate`), this forbids gluing structurally unrelated
    neighbours, typically costing a few more supernodes but strictly less
    padding. The chains are those of the scalar eforest ``fill.parent``.
    """
    return _greedy_merge(fill, partition, True, max_padding, max_size, _entries(fill))


def _entries(fill: StaticFill) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, prev_col)`` of the stored entries of ``Ā``, in CSC order:
    each entry's row, and the column of the previous entry in its row
    (``-1``: none)."""
    rows = fill.pattern.indices
    cols = _column_ids(fill)
    # CSC entries ascend by column, so a stable sort by row alone lists
    # them row-major.
    by_row = np.argsort(rows, kind="stable")
    prev_col = np.full(rows.size, -1, dtype=INDEX_DTYPE)
    same_row = rows[by_row[1:]] == rows[by_row[:-1]]
    prev_col[by_row[1:][same_row]] = cols[by_row[:-1][same_row]]
    return rows, prev_col


def _greedy_merge(fill, partition, chains, max_padding, max_size, entries):
    """The left-to-right greedy behind both amalgamation rules.

    For a group of columns ``lo:hi`` the L part stores the entries with row
    ``≥ lo`` and pads every column to the union of those rows. Both counts
    grow by a slice count per absorbed supernode: an entry adds a row to
    the union iff it is the first of its row at or after column ``lo``,
    i.e. iff the previous entry of its row lies left of ``lo``. With
    ``chains`` a group also ends where ``fill.parent`` leaves it.
    """
    if not (0.0 <= max_padding < 1.0):
        raise DispatchError(f"max_padding must be in [0, 1), got {max_padding}")
    n = fill.n
    rows, prev_col = entries
    starts = partition.starts.tolist()
    ptr = fill.pattern.indptr[partition.starts].tolist()
    chained = (fill.parent == np.arange(1, n + 1)).tolist() if chains else None
    merged = [starts[0]]
    i, last = 0, len(starts) - 1
    while i < last:
        lo = starts[i]
        stored = union = 0
        j = i
        while j < last:
            hi = starts[j + 1]
            if j > i and (
                hi - lo > max_size
                or (chained is not None and not chained[starts[j] - 1])
            ):
                break
            span = slice(ptr[j], ptr[j + 1])
            kept = rows[span] >= lo
            s = stored + int(np.count_nonzero(kept))
            u = union + int(np.count_nonzero(kept & (prev_col[span] < lo)))
            dense = u * (hi - lo)
            if j > i and (dense == 0 or (dense - s) / dense > max_padding):
                break
            stored, union = s, u
            j += 1
        merged.append(starts[j])
        i = j
    return SupernodePartition(starts=np.asarray(merged, dtype=np.int64))


def _unordered_groups(fill, partition, entries) -> np.ndarray:
    """Block columns of ``partition`` with a conflict that its block eforest
    leaves unordered (empty when the §4 graph is sound).

    Two block columns ``a < b`` conflict when a scalar row at or below
    ``b``'s diagonal has stored entries in both (pivot renames of either
    may move it) — rows of ``L̄`` are branches of the scalar eforest
    ``fill.parent``, so its edges are all there is to test — or when ``U(a, b)``
    exists and both store a block row below ``b`` (the update writes rows
    ``F(b)`` searches). The §4 graph orders ``a`` before ``b`` exactly when
    ``b`` is an ancestor of ``a``; when it is not, ``a`` mixes columns that
    leave it along different eforest paths.
    """
    rows = entries[0]
    nb, starts, member = partition.n_supernodes, partition.starts, partition.member_of()
    pat = fill.pattern
    blk = np.repeat(np.arange(nb), np.diff(pat.indptr[starts]))
    upper = rows < starts[blk]
    src, dst = member[rows[upper]], blk[upper]
    # Block eforest (Definition 1 on B̄): CSC order ascends in block column,
    # so scattered in reverse the first upper block of every block row wins.
    blk_parent = np.full(nb, -1, dtype=np.int64)
    blk_parent[src[::-1]] = dst[::-1]
    # Lowest stored block row per block column (CSC rows ascend: last is max).
    top = member[np.maximum.reduceat(pat.indices[pat.indptr[1:] - 1], starts[:-1])]
    blk_parent[top == np.arange(nb)] = -1
    # Children precede parents, so one ascending pass sizes the subtrees and
    # a postorder numbers them contiguously.
    post = postorder_forest(blk_parent)
    size = np.ones(nb, dtype=np.int64)
    for k, p in enumerate(blk_parent.tolist()):
        if p >= 0:
            size[p] += size[k]

    def unordered(a, b):
        return (post[a] <= post[b] - size[b]) | (post[a] > post[b])

    parent = fill.parent
    child = member[np.flatnonzero(parent >= 0)]
    bad = [child[unordered(child, member[parent[parent >= 0]])]]
    loose = (top[src] > dst) & (top[dst] > dst)
    src, dst = src[loose], dst[loose]
    loose = unordered(src, dst)

    def block_rows(k):  # asked of the few columns that get here
        return np.unique(member[rows[pat.indptr[starts[k]] : pat.indptr[starts[k + 1]]]])

    for key in np.unique(src[loose] * nb + dst[loose]).tolist():
        a, b = divmod(key, nb)
        if np.intersect1d(block_rows(a), block_rows(b))[-1] > b:
            bad.append([a])
    return np.unique(np.concatenate(bad))


@dataclass
class BlockPattern:
    """Submatrix block structure ``B̄`` over a supernode partition.

    ``blocks[k]`` lists, ascending, the block-row indices ``i`` with
    ``B̄_{i,k} ≠ 0`` (any stored entry of ``Ā`` inside the block). The task
    model reads the *block upper* part of block row ``k`` through
    :meth:`row_blocks`.
    """

    partition: SupernodePartition
    blocks: list[np.ndarray]

    @property
    def n_blocks(self) -> int:
        return self.partition.n_supernodes

    def col_blocks(self, k: int) -> np.ndarray:
        """Block rows with a nonzero block in block column ``k``."""
        return self.blocks[k]

    def row_blocks(self, k: int) -> np.ndarray:
        """Block columns ``j > k`` with ``B̄_{k,j} ≠ 0`` (the U side)."""
        out = [
            j
            for j in range(k + 1, self.n_blocks)
            if np.any(self.blocks[j] == k)
        ]
        return np.asarray(out, dtype=np.int64)

    def has_block(self, i: int, k: int) -> bool:
        return bool(np.any(self.blocks[k] == i))

    def nnz_blocks(self) -> int:
        return sum(b.size for b in self.blocks)


def block_pattern(fill: StaticFill, partition: SupernodePartition) -> BlockPattern:
    """Compute which ``B̄`` blocks contain stored entries of ``Ā``."""
    if partition.n != fill.n:
        raise PatternError(
            f"partition covers {partition.n} columns, matrix has {fill.n}"
        )
    member = partition.member_of()
    n_blocks = partition.n_supernodes
    # One key per entry, block column major; the distinct keys are the blocks.
    entries = np.diff(fill.pattern.indptr[partition.starts])
    keys = np.unique(
        np.repeat(np.arange(n_blocks) * n_blocks, entries)
        + member[fill.pattern.indices]
    )
    block_col, block_row = np.divmod(keys, n_blocks)
    ptr = np.searchsorted(block_col, np.arange(n_blocks + 1))
    return BlockPattern(
        partition=partition,
        blocks=[block_row[ptr[k] : ptr[k + 1]] for k in range(n_blocks)],
    )

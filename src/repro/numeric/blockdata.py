"""Dense block-column storage for the supernodal factorization.

Each block column ``j`` stores one contiguous dense panel covering the full
row ranges of its stored blocks ``B̄_{i,j}`` (padding inside a block is
explicit zeros, as in S+). Rows are addressed by *global row id*.

The storage is split in two layers mirroring the paper's static/numeric
phase boundary: :class:`BlockLayout` holds everything derivable from the
block pattern alone — boundaries, per-column block lists and panel offsets,
candidate-row ids and the *relative indices* that map every update's source
rows to panel positions of its target column — and is immutable once built,
so a cached symbolic plan can share one layout across arbitrarily many
numeric refactorizations and threads; :class:`BlockColumnData` allocates
the panels and scatters one matrix's values into them.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import BlockPattern
from repro.util.errors import PatternError, SchedulingError, ShapeError


def concat_ranges(lo: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``concatenate([arange(l, l + n) for l, n in zip(lo, lens)])``."""
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(lo - (ends - lens), lens)


class BlockLayout:
    """Pattern-derived structural metadata of the panel storage.

    Everything here depends only on the block pattern of ``Ā`` — not on
    values — so one layout serves every numeric factorization with the same
    pattern. All arrays are precomputed and never mutated after
    construction, which makes sharing a layout across concurrently running
    factorizations safe.

    The relative indices follow the supernodal idiom (HiGHS ``relind_*``):
    for every stored update ``(k → j)`` — block ``(k, j)`` above the
    diagonal with ``F(k)`` defined — one int32 row per candidate row of
    panel ``k`` holding its position in panel ``j``, or −1 when column
    ``j`` does not store that row. The numeric kernels index with them
    instead of searching the block boundaries per task.
    """

    def __init__(self, bp: BlockPattern) -> None:
        part = bp.partition
        nb = bp.n_blocks
        self.bp = bp
        self.n = part.n
        self.n_blocks = nb
        self.starts = starts = part.starts  # scalar boundaries of block rows/cols
        self.widths = widths = np.diff(starts)
        # block_of_row[r] = block-row index of scalar row r.
        self.block_of_row = part.member_of()

        # Stored blocks, flat in (column, row) order: block row ids and
        # panel offsets; column k's are the slice _col_ptr[k]:_col_ptr[k+1].
        counts = np.fromiter((b.size for b in bp.blocks), dtype=np.int64, count=nb)
        ptr = np.concatenate(([0], np.cumsum(counts)))
        rows = np.concatenate([*bp.blocks, np.empty(0, np.int64)]).astype(np.int64)
        cols = np.repeat(np.arange(nb, dtype=np.int64), counts)
        below = np.concatenate(([0], np.cumsum(widths[rows])))
        offs = below[:-1] - below[ptr[cols]]
        self._col_ptr: list[int] = ptr.tolist()
        self._block_rows = rows  # ascending block ids within each column
        self.panel_heights: list[int] = (below[ptr[1:]] - below[ptr[:-1]]).tolist()
        self._block_keys = cols * nb + rows  # ascending by construction
        self._block_offs = offs
        self._n_upper: list[int] = np.bincount(cols[rows < cols], minlength=nb).tolist()
        # Global row ids of the panel rows above each diagonal, flat: the
        # static row structure of U that the block solve scatters through.
        up = rows < cols
        upper_flat: np.ndarray = concat_ranges(starts[rows[up]], widths[rows[up]])
        upper_flat.setflags(write=False)
        self._upper_rows = upper_flat
        self._upper_ptr: list[int] = np.concatenate(
            ([0], np.cumsum(np.bincount(cols[up], weights=widths[rows[up]], minlength=nb)))
        ).astype(np.int64).tolist()

        diag = np.full(nb, -1, dtype=np.int64)  # -1: diagonal block absent
        diag[cols[rows == cols]] = offs[rows == cols]
        self._diag_offsets: list[int] = diag.tolist()
        # Candidate rows (diagonal block and below) of every column that
        # stores its diagonal; None marks the columns that do not.
        cand = (rows >= cols) & (diag[cols] >= 0)
        sub_flat = concat_ranges(starts[rows[cand]], widths[rows[cand]])
        sub_flat.setflags(write=False)
        sub_len = np.bincount(cols[cand], weights=widths[rows[cand]], minlength=nb)
        sub_ptr = np.concatenate(([0], np.cumsum(sub_len))).astype(np.int64)
        # Also the pointer array of the store's pivot slots (one per block).
        self.sub_ptr: list[int] = sub_ptr.tolist()
        self._sub_rows = [
            sub_flat[s:e] if d >= 0 else None
            for s, e, d in zip(self.sub_ptr[:-1], self.sub_ptr[1:], diag)
        ]

        # Relative indices of every update (k -> j), one flat int32 array
        # ordered by source, then target: step k's updates all have
        # len(sub_rows(k)) rows, so they form one (n_targets, n_sub) block.
        upd = (rows < cols) & (diag[rows] >= 0)
        by_source = np.lexsort((cols[upd], rows[upd]))
        uk, uj = rows[upd][by_source], cols[upd][by_source]
        lens = sub_ptr[uk + 1] - sub_ptr[uk]
        rel = self.locate(
            np.repeat(uj, lens), sub_flat[concat_ranges(sub_ptr[uk], lens)]
        ).astype(np.int32)
        rel.setflags(write=False)
        uj.setflags(write=False)
        self._rel = rel
        self._targets = uj  # step k's targets: _targets[_step_ptr[k]:_step_ptr[k + 1]]
        self._step_ptr: list[int] = np.searchsorted(uk, np.arange(nb + 1)).tolist()
        self._step_rel_ptr: list[int] = np.concatenate(
            ([0], np.cumsum(np.bincount(uk, weights=lens, minlength=nb)))
        ).astype(np.int64).tolist()

    # ------------------------------------------------------------------
    def _column(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Block row ids and panel offsets of column ``k``'s stored blocks,
        as views of the flat arrays."""
        lo, hi = self._col_ptr[k], self._col_ptr[k + 1]
        return self._block_rows[lo:hi], self._block_offs[lo:hi]

    @property
    def col_blocks(self) -> list[np.ndarray]:
        """Per block column, the ascending block row ids it stores. Built on
        request: a plan keeps the flat arrays, not a view per column."""
        return [self._column(k)[0] for k in range(self.n_blocks)]

    @property
    def col_offsets(self) -> list[np.ndarray]:
        """Per block column, the panel offset of each stored block."""
        return [self._column(k)[1] for k in range(self.n_blocks)]

    def width(self, k: int) -> int:
        return int(self.widths[k])

    def _find(
        self, block_rows: np.ndarray, block_cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(idx, found)``: where block ``(block_rows[i], block_cols[i])``
        sits in the flat stored-block arrays, and whether it is stored."""
        keys = block_cols * self.n_blocks + block_rows
        if not self._block_keys.size:
            return np.zeros(keys.shape, np.int64), np.zeros(keys.shape, bool)
        idx = np.minimum(
            np.searchsorted(self._block_keys, keys), self._block_keys.size - 1
        )
        return idx, self._block_keys[idx] == keys

    def has_blocks(self, block_rows: np.ndarray, block_cols: np.ndarray) -> np.ndarray:
        """Elementwise: is block ``(block_rows[i], block_cols[i])`` stored?"""
        return self._find(block_rows, block_cols)[1]

    def locate(self, block_cols: np.ndarray, global_rows: np.ndarray) -> np.ndarray:
        """Panel position of row ``global_rows[i]`` in block column
        ``block_cols[i]``, −1 where that column does not store the row."""
        bid = self.block_of_row[global_rows]
        idx, found = self._find(bid, block_cols)
        out = np.full(found.shape, -1, dtype=np.int64)
        out[found] = self._block_offs[idx[found]] + (global_rows - self.starts[bid])[found]
        return out

    def positions(
        self, k: int, global_rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Panel positions of ``global_rows`` in block column ``k``.

        Returns ``(pos, present)``; ``pos`` is only valid where ``present``.
        Searches column ``k``'s own block list, independently of
        :meth:`locate` — the oracle the relative indices are tested
        against; nothing on the numeric path calls it.
        """
        global_rows = np.asarray(global_rows, dtype=np.int64)
        blocks, offsets = self._column(k)
        bid = self.block_of_row[global_rows]
        idx = np.searchsorted(blocks, bid)
        idx_clipped = np.minimum(idx, blocks.size - 1) if blocks.size else idx
        present = (
            (blocks.size > 0)
            & (idx < blocks.size)
            & (blocks[idx_clipped] == bid)
        )
        pos = np.zeros(global_rows.size, dtype=np.int64)
        ok = np.nonzero(present)[0]
        if ok.size:
            b = idx[ok]
            pos[ok] = offsets[b] + (
                global_rows[ok] - self.starts[blocks[b]]
            )
        return pos, present

    def step_targets(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``(targets, rel)`` of block step ``k``: the ascending block
        columns ``j`` that ``Update(k, j)`` writes, and the
        ``(len(targets), len(sub_rows(k)))`` view whose row ``t`` is
        :meth:`relative_rows` ``(k, targets[t])``; shared and read-only."""
        lo, hi = self._step_ptr[k], self._step_ptr[k + 1]
        s, e = self._step_rel_ptr[k], self._step_rel_ptr[k + 1]
        n_sub = self.sub_ptr[k + 1] - self.sub_ptr[k]
        return self._targets[lo:hi], self._rel[s:e].reshape(hi - lo, n_sub)

    def relative_rows(self, k: int, j: int) -> np.ndarray:
        """Panel-``j`` position of every row of ``sub_rows(k)`` (−1 when
        absent) for the stored update ``(k → j)``; shared and read-only.
        The first ``width(k)`` entries are the rows of ``U`` block
        ``(k, j)``, always present and contiguous."""
        lo, hi = self._step_ptr[k], self._step_ptr[k + 1]
        t = lo + int(self._targets[lo:hi].searchsorted(j))
        if t == hi or self._targets[t] != j:
            raise SchedulingError(
                f"update ({k}->{j}) scheduled but block ({k},{j}) is not stored"
            )
        n_sub = self.sub_ptr[k + 1] - self.sub_ptr[k]
        start = self._step_rel_ptr[k] + (t - lo) * n_sub
        return self._rel[start : start + n_sub]

    def block_offset(self, i: int, j: int) -> int:
        """Panel offset of stored block ``(i, j)`` in block column ``j``."""
        idx, found = self._find(np.array([i]), np.array([j]))
        if not found[0]:
            raise PatternError(f"block ({i},{j}) is not stored")
        return int(self._block_offs[idx[0]])

    def upper_blocks(self, k: int) -> list[tuple[int, int, int]]:
        """``(block row, panel offset, height)`` of the blocks above the
        diagonal of column ``k`` — the static U side of the factors."""
        lo = self._col_ptr[k]
        hi = lo + self._n_upper[k]
        b, offs = self._block_rows[lo:hi], self._block_offs[lo:hi]
        return list(zip(b.tolist(), offs.tolist(), self.widths[b].tolist()))

    def upper_rows(self, k: int) -> np.ndarray:
        """Global row ids of the panel rows above the diagonal of column
        ``k``, in panel order (the rows of :meth:`upper_blocks`, stacked);
        shared and read-only."""
        return self._upper_rows[self._upper_ptr[k] : self._upper_ptr[k + 1]]

    def diag_offset(self, k: int) -> int:
        """Panel offset of the diagonal block in block column ``k``."""
        off = self._diag_offsets[k]
        if off < 0:
            raise PatternError(f"diagonal block ({k},{k}) is not stored")
        return off

    def sub_rows(self, k: int) -> np.ndarray:
        """Global row ids of the candidate (diagonal-and-below) panel rows.

        The returned array is precomputed, shared, and read-only.
        """
        subs = self._sub_rows[k]
        if subs is None:
            raise PatternError(f"diagonal block ({k},{k}) is not stored")
        return subs


class BlockColumnData:
    """The panel store: every dense panel of one matrix and, beside it, the
    pivot renaming of every factored panel.

    Two flat buffers hold the state of a factorization — ``values`` (the
    panels, block column after block column, row-major) and ``pivot_ids``
    (one slot per block, sized like ``sub_rows(k)``: the global row id
    ``F(k)`` moved to each candidate position, ``-1`` until it ran) — and
    three per-block lists of views address them: ``panels``, ``sub_panels``
    (the diagonal-and-below rows of each panel) and ``pivots``.
    ``F(k)`` publishes into them once, every ``Update(k, ·)`` reads them;
    executors differ only in where the two buffers live (:meth:`attach`).

    Parameters
    ----------
    a:
        The (ordered, statically analyzable) matrix with values; its stored
        entries are scattered into the panels.
    bp:
        Block pattern over the supernode partition; defines which blocks are
        materialized.
    owned_columns:
        When given, only these block columns get panels (the others stay
        ``None``) — the per-process storage of a distributed-memory run.
        Pattern metadata (boundaries, block lists, offsets) and the pivot
        slots are replicated on every process, exactly as real distributed
        codes replicate the symbolic structure.
    layout:
        A precomputed :class:`BlockLayout` for ``bp`` (e.g. carried by a
        cached symbolic plan). When omitted, one is built here; when given,
        it must have been built from this ``bp``.
    """

    def __init__(
        self,
        a: CSCMatrix,
        bp: BlockPattern,
        owned_columns: "set[int] | None" = None,
        *,
        layout: "BlockLayout | None" = None,
    ) -> None:
        if not a.is_square or a.n_cols != bp.partition.n:
            raise ShapeError(
                f"matrix ({a.shape}) and partition ({bp.partition.n}) disagree"
            )
        if not a.has_values:
            raise PatternError("numeric factorization needs matrix values")
        if layout is None:
            layout = BlockLayout(bp)
        elif layout.n != a.n_cols or layout.n_blocks != bp.n_blocks:
            raise ShapeError("layout does not match the given block pattern")
        self.layout = layout
        self.n = a.n_cols
        self.n_blocks = bp.n_blocks
        self.starts = layout.starts
        self.block_of_row = layout.block_of_row

        owned = np.ones(self.n_blocks, dtype=bool)
        if owned_columns is not None:
            owned[:] = False
            owned[list(owned_columns)] = True
        # Panel k is the (height, width) view of ``values`` at _base[k].
        heights = np.asarray(layout.panel_heights, dtype=np.int64)
        sizes = np.where(owned, heights * layout.widths, 0)
        self._base = base = np.concatenate(([0], np.cumsum(sizes)))
        self._owned: list[bool] = owned.tolist()
        self.attach(
            np.zeros(int(base[-1]), dtype=np.float64),
            np.full(layout.sub_ptr[-1], -1, dtype=np.int64),
        )

        # Scatter A's values (owned columns only): one position lookup over
        # all stored entries, one assignment into the shared buffer.
        cols = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(a.indptr))
        mine = owned[self.block_of_row[cols]]
        cols, rows, vals = cols[mine], a.indices[mine].astype(np.int64), a.data[mine]
        kcol = self.block_of_row[cols]
        pos = layout.locate(kcol, rows)
        if pos.size and pos.min() < 0:
            col = int(cols[np.argmax(pos < 0)])
            missing = rows[(pos < 0) & (cols == col)][:5]
            raise PatternError(
                f"entries of column {col} fall outside the block pattern "
                f"(rows {missing.tolist()}): the pattern must cover Ā ⊇ A"
            )
        self.values[
            base[kcol] + pos * layout.widths[kcol] + (cols - self.starts[kcol])
        ] = vals

    def attach(self, values: np.ndarray, pivot_ids: np.ndarray) -> None:
        """Make ``values`` / ``pivot_ids`` the store's two buffers and
        rebuild the per-block views over them — the only code that turns
        offsets into views. The buffers are taken as they are (a proc
        worker attaches the shared arena the parent filled); they must have
        the sizes this store allocated."""
        layout = self.layout
        if values.size != self._base[-1] or pivot_ids.size != layout.sub_ptr[-1]:
            raise ShapeError("buffers do not match the store's layout")
        self.values, self.pivot_ids = values, pivot_ids
        base = self._base.tolist()
        self.panels: list[np.ndarray | None] = [
            values[s:e].reshape(h, w) if own else None
            for s, e, h, w, own in zip(
                base[:-1],
                base[1:],
                layout.panel_heights,
                layout.widths.tolist(),
                self._owned,
            )
        ]
        self.sub_panels: list[np.ndarray | None] = [
            panel[off:] if panel is not None and off >= 0 else None
            for panel, off in zip(self.panels, layout._diag_offsets)
        ]
        ptr = layout.sub_ptr
        self.pivots: list[np.ndarray] = [
            pivot_ids[s:e] for s, e in zip(ptr[:-1], ptr[1:])
        ]

    # ------------------------------------------------------------------
    def width(self, k: int) -> int:
        return self.layout.width(k)

    def sub_rows(self, k: int) -> np.ndarray:
        """Global row ids of the candidate (diagonal-and-below) panel rows."""
        return self.layout.sub_rows(k)

    def sub_panel(self, k: int) -> np.ndarray:
        """``sub_panels[k]``, checked: the candidate rows of panel ``k``
        (diagonal block first; contiguous because blocks are stored in
        ascending order)."""
        sub = self.sub_panels[k]
        if sub is None:
            self.layout.diag_offset(k)  # raises if the diagonal is absent
            raise PatternError(
                f"block column {k} is not materialized on this process"
            )
        return sub

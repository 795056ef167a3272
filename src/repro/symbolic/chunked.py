"""Chunked (streaming) George-Ng static symbolic factorization.

The ``"fast"`` kernel of :mod:`repro.symbolic.static_fill` materializes the
whole fill computation at once: every Ū row and L̄ column fragment stays
alive until one monolithic ``lexsort`` assembles the pattern, so its peak
working memory is several int64 copies of the *total* fill — fine at
n≈5×10³, hopeless at the 10⁵–10⁶ sizes the production serving layer needs.
This module streams the same merge over contiguous column chunks
(GSoFa-style, arXiv 2007.00840):

**Streaming.** Column ``j`` of ``Ā`` receives U entries only from rows
``i ≤ j`` (row ``i``'s Ū structure is fixed at step ``i``) and its L
entries at step ``j`` itself, so once the merge passes a chunk boundary
``c₁`` every column below ``c₁`` is final. Each chunk is therefore
assembled — sorted, deduplication-free, converted to its final
``int32`` CSC piece — as soon as its last step retires, and all of its
intermediate fragments are freed. Entries destined for *future* chunks
(the tail of a Ū row that crosses the boundary) are copied into
per-chunk buckets and periodically compacted into flat blocks, so the
pending state is one int64 (row, col) pair per not-yet-delivered entry
rather than one Python object per fragment. Peak working memory is the
current chunk's scratch plus the merge frontier plus the pending
buckets — the assembled output itself is accumulated directly in its
final 4-bytes-per-entry form.

Selection: ``impl="chunked"`` / ``REPRO_SYMBOLIC=chunked`` (see
:mod:`repro.symbolic.dispatch`). One knob: the ``chunk=`` argument (or
the ``"chunk"`` key of ``SolverOptions.symbolic_params``); left unset it
is sized from ``n`` and ``nnz`` by :func:`auto_chunk_size`. The chunk
size never changes the output pattern — only the memory/time profile —
which is why it is an execution knob and not part of the symbolic cache
key. The merge is bit-exact with ``"fast"`` by construction: both run the
same steps in the same ascending order on the same union-find state.

Observability: the ``symbolic.row_merge`` span (``impl="chunked"``)
carries the resolved chunk size and opens one ``symbolic.chunk`` child
span per assembled chunk; a ``symbolic.peak_bytes`` gauge records the
implementation's own model of its peak live entry bytes.
``benchmarks/bench_symbolic.py`` additionally measures allocator-level
peaks with ``tracemalloc`` and pins chunked ≤ 0.5× the fast path's peak
at the largest benched size.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sparse.convert import csc_to_csr
from repro.sparse.csc import CSCMatrix, INDEX_DTYPE
from repro.symbolic.static_fill import StaticFill, _null_tracer
from repro.util.errors import DispatchError, PatternError, ShapeError

#: Auto chunk-size target: entry bytes of one chunk's working set.
DEFAULT_CHUNK_TARGET_BYTES = 4 << 20

#: Floor for the auto heuristic — tinier chunks are all span/bookkeeping.
MIN_AUTO_CHUNK = 64

#: Compact a bucket's fragment lists into flat blocks past this many
#: fragments, bounding per-object overhead on arrow-like patterns where
#: every step emits a sliver to the same far column.
_COMPACT_FRAGS = 512

_EMPTY_I8 = np.empty(0, dtype=np.int64)

#: Latent initial-group marker in ``_MergeState.tails`` / ``rows_of`` —
#: distinct from ``None`` (dead group). See ``_MergeState.__init__``.
_INITIAL = object()


# ---------------------------------------------------------------------------
# Chunk size
# ---------------------------------------------------------------------------

def auto_chunk_size(
    n: int, nnz: int, *, target_bytes: int = DEFAULT_CHUNK_TARGET_BYTES
) -> int:
    """Heuristic chunk size targeting ``target_bytes`` of chunk working set.

    The estimate assumes each of a chunk's columns densifies to roughly
    ``4 × (nnz/n) + 8`` entries (an empirical George-Ng growth factor for
    the banded/grid families the large-n tier benches) and that each
    in-flight entry costs ~24 bytes (int64 row + col during assembly plus
    the final int32 index). Denser inputs therefore get shorter chunks —
    the knob adapts to density, not just to ``n``. Clamped to
    ``[min(n, MIN_AUTO_CHUNK), n]``; the returned size never changes the
    output pattern, only the memory profile.
    """
    if n <= 0:
        return 1
    avg = max(1.0, nnz / n)
    bytes_per_col = 24.0 * (4.0 * avg + 8.0)
    chunk = int(target_bytes / bytes_per_col)
    return max(1, min(n, max(chunk, MIN_AUTO_CHUNK)))


def resolve_chunk(chunk: Optional[int], n: int, nnz: int) -> int:
    """Chunk size: the ``chunk`` argument when given, else :func:`auto_chunk_size`."""
    if chunk is None:
        return auto_chunk_size(n, nnz)
    if int(chunk) < 1:
        raise DispatchError(f"chunk argument must be >= 1, got {chunk}")
    return int(chunk)


# ---------------------------------------------------------------------------
# Merge state
# ---------------------------------------------------------------------------

class _Bucket:
    """Pending entries of one output chunk, awaiting its assembly.

    ``u_frags`` holds ``(row k, cols)`` fragments of Ū rows, ``l_frags``
    holds ``(rows, col k)`` fragments of L̄ columns, and ``blocks`` holds
    compacted flat ``(rows, cols)`` pairs."""

    __slots__ = ("u_frags", "l_frags", "blocks", "n_frags")

    def __init__(self) -> None:
        self.u_frags: list = []
        self.l_frags: list = []
        self.blocks: list = []
        self.n_frags = 0


class _MergeState:
    """Shared state of one chunked factorization run."""

    def __init__(self, pat: CSCMatrix, bounds: np.ndarray) -> None:
        n = pat.n_cols
        self.n = n
        csr = csc_to_csr(pat)
        # Union-find over merge groups; plain Python lists beat int64
        # ndarrays for the scalar walk (same reasoning as the fast path).
        self.uf = list(range(n))
        # Initial group state stays *latent*: tails[i] / rows_of[i] hold the
        # _INITIAL sentinel until row i's group first merges, and the real
        # arrays are sliced out of all_cols / all_rows on demand. The fast
        # path materializes all 2n view objects up front, ~200 bytes of
        # Python object headers per row — at large n with sparse fill (the
        # banded family) that dwarfs the actual entry data. Latent slots
        # keep the live view count proportional to the merge frontier.
        self.all_cols = csr.indices.astype(np.int64)
        self.row_ptr = csr.indptr
        self.all_rows = np.arange(n, dtype=np.int64)
        self.tails: list = [_INITIAL] * n
        self.rows_of: list = [_INITIAL] * n
        self.mark = [-1] * n
        # Column entries stay int32 arrays, converted to scalars one small
        # per-step slice at a time — the fast path's bulk tolist() costs
        # ~28 bytes of boxed int per stored entry for the whole run.
        self.col_idx = pat.indices
        self.ptr = pat.indptr
        #: bounds[b] .. bounds[b+1] is chunk b; ends[b] == bounds[b+1].
        self.bounds = bounds
        self.ends = bounds[1:]
        self.buckets: list = [_Bucket() for _ in range(self.ends.size)]
        # Reusable dedupe mask (the fast path's allocation-free trick).
        self.keep_buf = np.empty(max(n, 1), dtype=bool)
        self.keep_buf[0] = True
        # Model accounting: live entry bytes (frontier + buckets + pieces)
        # and its running peak; ``delta`` accumulates one step's or one
        # assembly's change until :meth:`flush` folds it in.
        self.live_bytes = self.all_cols.nbytes + self.all_rows.nbytes
        self.peak_bytes = self.live_bytes
        self.delta = 0

    def _tail_of(self, g: int) -> np.ndarray:
        t = self.tails[g]
        if t is _INITIAL:
            t = self.all_cols[int(self.row_ptr[g]) : int(self.row_ptr[g + 1])]
        return t

    def _rows_of(self, g: int) -> np.ndarray:
        r = self.rows_of[g]
        if r is _INITIAL:
            r = self.all_rows[g : g + 1]
        return r

    # -- merge ----------------------------------------------------------

    def step(self, k: int) -> None:
        """One George-Ng elimination step — semantics identical to ``fast``."""
        uf = self.uf
        tails = self.tails
        rows_of = self.rows_of
        mark = self.mark
        cand: list[int] = []
        for r in self.col_idx[self.ptr[k] : self.ptr[k + 1]].tolist():
            g = uf[r]
            while uf[g] != g:  # path halving
                uf[g] = uf[uf[g]]
                g = uf[g]
            uf[r] = g
            if mark[g] != k:
                mark[g] = k
                if rows_of[g] is not None:  # skip dead groups
                    cand.append(g)
        delta = 0
        if len(cand) == 1:
            g0 = cand[0]
            union = self._tail_of(g0)
            live = self._rows_of(g0)
            delta -= 8 * (union.size + live.size)
        else:
            cand_tails = [self._tail_of(g) for g in cand]
            buf = np.concatenate(cand_tails)
            buf.sort()
            kb = self.keep_buf
            if buf.size > kb.size:  # overlapping tails can exceed n
                kb = self.keep_buf = np.empty(2 * buf.size, dtype=bool)
                kb[0] = True
            keep = kb[: buf.size]
            np.not_equal(buf[1:], buf[:-1], out=keep[1:])
            union = buf[keep]
            cand_rows = [self._rows_of(g) for g in cand]
            live = np.concatenate(cand_rows)
            for t, r in zip(cand_tails, cand_rows):
                delta -= 8 * (t.size + r.size)
        if union.size == 0 or union[0] != k:
            raise PatternError(f"diagonal entry ({k},{k}) lost during merge")

        if live.size == 1:  # the lone live row must be k itself
            below = _EMPTY_I8
        else:
            below = live[live != k]  # live rows are >= k; freeze row k now

        self._emit(k, union, below)

        g_new = cand[0]
        for g in cand[1:]:
            uf[g] = g_new
            tails[g] = None
            rows_of[g] = None
        if below.size:
            tails[g_new] = union[1:]  # the shared post-merge tail
            rows_of[g_new] = below
            delta += 8 * (union.size - 1 + below.size)
        else:
            tails[g_new] = None  # group is exhausted
            rows_of[g_new] = None
        self.delta += delta

    def _emit(self, k: int, union: np.ndarray, below: np.ndarray) -> None:
        """Route step ``k``'s output entries into their chunk buckets.

        The in-chunk head of the Ū row stays a view (its base dies with
        the chunk); cross-boundary tails are *copied* so a one-element
        sliver destined for a far chunk cannot pin the whole union array
        until that chunk assembles.
        """
        ends = self.ends
        cb = int(np.searchsorted(ends, k, side="right"))
        b = self.buckets[cb]
        if below.size:
            b.l_frags.append((below, k))
            b.n_frags += 1
            self.delta += 8 * below.size
        end = int(ends[cb])
        if int(union[-1]) < end:
            b.u_frags.append((k, union))
            b.n_frags += 1
            self.delta += 8 * union.size
        else:
            cut = int(np.searchsorted(union, end))
            b.u_frags.append((k, union[:cut]))
            b.n_frags += 1
            rest = union[cut:]
            pos = np.searchsorted(ends, rest, side="right")
            start = 0
            while start < rest.size:
                c2 = int(pos[start])
                stop = int(np.searchsorted(pos, c2, side="right"))
                fb = self.buckets[c2]
                fb.u_frags.append((k, rest[start:stop].copy()))
                fb.n_frags += 1
                if fb.n_frags >= _COMPACT_FRAGS:
                    self._compact(fb)
                start = stop
            self.delta += 8 * union.size
        if b.n_frags >= _COMPACT_FRAGS:
            self._compact(b)

    def _compact(self, b: _Bucket) -> None:
        """Fold a bucket's fragment lists into one flat (rows, cols) block."""
        rows_parts: list = []
        cols_parts: list = []
        for k, cols in b.u_frags:
            rows_parts.append(np.full(cols.size, k, dtype=np.int64))
            cols_parts.append(cols)
        for rows, k in b.l_frags:
            rows_parts.append(rows)
            cols_parts.append(np.full(rows.size, k, dtype=np.int64))
        if rows_parts:
            rows = np.concatenate(rows_parts)
            cols = np.concatenate(cols_parts)
            b.blocks.append((rows, cols))
            self.delta += rows.nbytes  # entries now cost 16 B, were 8 B
        b.u_frags.clear()
        b.l_frags.clear()
        b.n_frags = 0

    # -- assembly -------------------------------------------------------

    def assemble_chunk(self, bidx: int) -> tuple[np.ndarray, np.ndarray]:
        """Final int32 CSC piece of chunk ``bidx``; frees its bucket."""
        b = self.buckets[bidx]
        c0 = int(self.bounds[bidx])
        clen = int(self.ends[bidx]) - c0
        freed = sum(r.nbytes + c.nbytes for r, c in b.blocks)
        rows_parts = [rows for rows, _cols in b.blocks]
        cols_parts = [cols for _rows, cols in b.blocks]
        for k, cols in b.u_frags:
            rows_parts.append(np.full(cols.size, k, dtype=np.int64))
            cols_parts.append(cols)
            freed += 8 * cols.size
        for rows, k in b.l_frags:
            rows_parts.append(rows)
            cols_parts.append(np.full(rows.size, k, dtype=np.int64))
            freed += 8 * rows.size
        if rows_parts:
            rows = np.concatenate(rows_parts)
            cols = np.concatenate(cols_parts)
            # (col, row) pairs are unique — U contributes i <= j, L
            # contributes i > j, each at most once — so this sort equals
            # the fast path's global lexsort restricted to the chunk.
            order = np.lexsort((rows, cols))
            indices = rows[order].astype(INDEX_DTYPE)
            counts = np.bincount(cols - c0, minlength=clen)
        else:
            indices = np.empty(0, dtype=INDEX_DTYPE)
            counts = np.zeros(clen, dtype=np.int64)
        self.delta += indices.nbytes + counts.nbytes - freed
        self.buckets[bidx] = None  # free the bucket
        return counts, indices

    # -- accounting -----------------------------------------------------

    def flush(self) -> None:
        """Fold the pending byte delta into the live/peak counters."""
        self.live_bytes += self.delta
        self.delta = 0
        if self.live_bytes > self.peak_bytes:
            self.peak_bytes = self.live_bytes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def static_symbolic_factorization_chunked(
    a: CSCMatrix,
    *,
    chunk: Optional[int] = None,
    tracer=None,
) -> StaticFill:
    """George-Ng merge streamed over column chunks, bit-exact with ``fast``.

    ``chunk`` bounds the columns assembled per streaming pass (default:
    :func:`auto_chunk_size` of ``n`` and ``nnz``); it never changes the
    output pattern. See the module docstring for the memory model.
    """
    if not a.is_square:
        raise ShapeError("static symbolic factorization requires a square matrix")
    tr = _null_tracer(tracer)
    n = a.n_cols
    pat = a.pattern_only()
    if n == 0:
        empty = CSCMatrix(
            0, 0, np.zeros(1, dtype=np.int64), np.empty(0, dtype=INDEX_DTYPE),
            None, check=False,
        )
        return StaticFill(pattern=empty, nnz_original=a.nnz)

    # Zero-free diagonal validation, vectorized (identical to fast).
    col_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(pat.indptr))
    has_diag = np.zeros(n, dtype=bool)
    has_diag[col_ids[pat.indices == col_ids]] = True
    if not bool(has_diag.all()):
        k = int(np.nonzero(~has_diag)[0][0])
        raise PatternError(
            f"zero-free diagonal required: a[{k},{k}] is not stored "
            "(apply zero_free_diagonal_permutation first)"
        )

    chunk_size = resolve_chunk(chunk, n, pat.nnz)
    bounds = np.arange(0, n + chunk_size, chunk_size, dtype=np.int64)
    bounds[-1] = n
    if bounds.size >= 2 and bounds[-1] == bounds[-2]:
        bounds = bounds[:-1]
    n_chunks = bounds.size - 1

    state = _MergeState(pat, bounds)
    pieces: list[np.ndarray] = []
    counts_list: list[np.ndarray] = []

    with tr.span(
        "symbolic.row_merge",
        impl="chunked",
        chunk=int(chunk_size),
        n_chunks=int(n_chunks),
    ):
        for b in range(n_chunks):
            c0, c1 = int(bounds[b]), int(bounds[b + 1])
            with tr.span("symbolic.chunk", index=b, start=c0, stop=c1) as s:
                for k in range(c0, c1):
                    state.step(k)
                    state.flush()
                counts, indices = state.assemble_chunk(b)
                state.flush()
                s.set(entries=int(indices.size))
            counts_list.append(counts)
            pieces.append(indices)

    with tr.span("symbolic.assemble", impl="chunked") as s:
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.concatenate(counts_list), out=indptr[1:])
        indices = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=INDEX_DTYPE)
        )
        # The final concatenation transiently doubles the output itself.
        peak = max(state.peak_bytes, state.live_bytes + indices.nbytes)
        s.set(nnz=int(indices.size), peak_bytes=int(peak))
        pattern = CSCMatrix(n, n, indptr, indices, None, check=False)
    if tr.enabled:
        tr.metrics.gauge("symbolic.peak_bytes", unit="bytes").set(float(peak))
    return StaticFill(pattern=pattern, nnz_original=a.nnz)

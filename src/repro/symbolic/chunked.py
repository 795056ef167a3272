"""The George-Ng row merge, streamed over column chunks.

This is the one kernel behind
:func:`repro.symbolic.static_fill.static_symbolic_factorization`:
``impl="fast"`` runs it as a single chunk of ``n`` columns,
``impl="chunked"`` with ``chunk=`` columns per chunk (default
:func:`auto_chunk_size`). The chunk size never changes the output
pattern, only the memory profile.

**The merge.** State is kept per *merge group*, not per row: after step
``k`` all candidate rows share one tail, so the shared-``set`` trick of
the reference kernel becomes a union-find whose roots own one sorted
``int64`` tail and one array of live rows each. A merged group's tail is
the union of its constituents' tails, so the initial column index of
``A`` (resolved through the union-find) always finds every group whose
tail contains ``k``: there is no inverted index to maintain. Initial
groups stay *latent* until their first merge (their arrays are sliced out
of one flat copy of the CSR indices on demand), so no Python object is
held per untouched row.

**Streaming** (GSoFa-style, arXiv 2007.00840). Column ``j`` of ``Ā``
receives U entries only from rows ``i ≤ j`` (row ``i``'s Ū structure is
fixed at step ``i``) and its L entries at step ``j`` itself, so once the
merge passes a chunk boundary every column before it is final. Each chunk
is assembled — one sort of its ``(col, row)`` entries, converted to its
final ``int32`` CSC piece — as soon as its last step retires, and its
fragments are freed. The Ū entries a chunk's steps emit past the boundary
are split off in one vectorized pass at that assembly and parked with the
chunk that will own them. A step does no streaming work of its own, so a
single chunk costs what a one-shot merge with a final global sort costs.

Observability: the ``symbolic.row_merge`` span carries the chunk size and
count and opens one ``symbolic.chunk`` child span per assembled chunk;
``symbolic.assemble`` carries ``nnz`` and the kernel's model of its peak
live entry bytes, also published as the ``symbolic.peak_bytes`` gauge when
the tracer records detail metrics.
``benchmarks/bench_symbolic.py`` measures allocator-level peaks with
``tracemalloc`` and pins the chunked peak ≤ 0.5× the one-chunk peak at
the largest benched size.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sparse.convert import csc_to_csr
from repro.sparse.csc import CSCMatrix, INDEX_DTYPE
from repro.util.errors import DispatchError, PatternError

#: Auto chunk-size target: entry bytes of one chunk's working set.
DEFAULT_CHUNK_TARGET_BYTES = 4 << 20

#: Floor for the auto heuristic — tinier chunks are all span/bookkeeping.
MIN_AUTO_CHUNK = 64

_EMPTY_I8 = np.empty(0, dtype=np.int64)

#: Latent initial-group marker in the ``tails`` / ``rows_of`` slots of
#: :func:`row_merge` — distinct from ``None`` (a dead group).
_INITIAL = object()


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


def row_merge(pat: CSCMatrix, chunk: int, *, impl: str, tracer) -> CSCMatrix:
    """Pattern of ``Ā`` for the square pattern ``pat``, assembled ``chunk``
    columns at a time (``impl`` only labels the spans)."""
    n = pat.n_cols
    # Zero-free diagonal validation, vectorized: an entry (i, j) with
    # i == j marks column j as having its diagonal stored.
    col_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(pat.indptr))
    has_diag = np.zeros(n, dtype=bool)
    has_diag[col_ids[pat.indices == col_ids]] = True
    if not bool(has_diag.all()):
        k = int(np.nonzero(~has_diag)[0][0])
        raise PatternError(
            f"zero-free diagonal required: a[{k},{k}] is not stored "
            "(apply zero_free_diagonal_permutation first)"
        )
    del col_ids, has_diag

    csr = csc_to_csr(pat)
    all_cols = csr.indices.astype(np.int64)
    row_ptr = csr.indptr
    all_rows = np.arange(n, dtype=np.int64)
    # Union-find over merge groups (group ids start out as row ids). Plain
    # Python lists beat int64 ndarrays for the scalar walk, where numpy's
    # per-element boxing dominates.
    uf = list(range(n))
    tails: list = [_INITIAL] * n  # root group -> sorted tail columns (>= k)
    rows_of: list = [_INITIAL] * n  # root group -> its live (unfrozen) rows
    mark = [-1] * n  # mark[g] == k <=> g already collected at step k
    keep_buf = np.empty(max(n, 1), dtype=bool)  # reused dedupe mask
    keep_buf[0] = True
    concat = np.concatenate
    a_ptr = pat.indptr
    n_chunks = -(-n // chunk)
    # Entries emitted before their chunk: pending[b] holds (rows, cols)
    # blocks, at most one per earlier chunk.
    pending: list = [[] for _ in range(n_chunks)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    pieces: list = []
    # Peak-bytes model, taken at each chunk's sort: the input copies, the
    # assembled pieces, the pending entries, 8 B per fragment entry the
    # chunk emitted and 24 B per entry of its packed sort keys and their
    # decode scratch.
    base = all_cols.nbytes + all_rows.nbytes
    out_bytes = pending_bytes = peak = 0

    with tracer.span(
        "symbolic.row_merge", impl=impl, chunk=int(chunk), n_chunks=int(n_chunks)
    ):
        for b in range(n_chunks):
            c0 = b * chunk
            c1 = min(c0 + chunk, n)
            with tracer.span("symbolic.chunk", index=b, start=c0, stop=c1) as s:
                # Column k's rows of A, as plain ints: one tolist() per
                # chunk is far cheaper than a slice of the int32 array per
                # step, and bounds the boxed copy to one chunk.
                p0 = int(a_ptr[c0])
                col_rows = pat.indices[p0 : int(a_ptr[c1])].tolist()
                col_ptr = (a_ptr[c0 : c1 + 1] - p0).tolist()
                u_out: list = []  # Ū row k, for k in c0..c1
                l_out: list = []  # L̄ column k below the diagonal
                for k, lo, hi in zip(range(c0, c1), col_ptr, col_ptr[1:]):
                    cand: list[int] = []
                    for r in col_rows[lo:hi]:
                        g = uf[r]
                        while uf[g] != g:  # path halving
                            uf[g] = uf[uf[g]]
                            g = uf[g]
                        uf[r] = g
                        if mark[g] != k:
                            mark[g] = k
                            if rows_of[g] is not None:  # skip dead groups
                                cand.append(g)
                    g_new = cand[0]
                    if len(cand) == 1:
                        union = tails[g_new]
                        if union is _INITIAL:  # a lone untouched row is k
                            union = all_cols[row_ptr[g_new] : row_ptr[g_new + 1]]
                            below = _EMPTY_I8
                        else:
                            live = rows_of[g_new]
                            # Live rows are >= k; row k freezes now.
                            below = live[live != k] if live.size > 1 else _EMPTY_I8
                    else:
                        parts_t = []
                        parts_r = []
                        for g in cand:
                            t = tails[g]
                            if t is _INITIAL:
                                parts_t.append(all_cols[row_ptr[g] : row_ptr[g + 1]])
                                parts_r.append(all_rows[g : g + 1])
                            else:
                                parts_t.append(t)
                                parts_r.append(rows_of[g])
                            uf[g] = g_new  # a no-op for the root g_new
                            tails[g] = rows_of[g] = None
                        # Sorted dedupe without np.unique: sort the
                        # concatenated tails, then an adjacent-difference
                        # mask is the whole job.
                        buf = concat(parts_t)
                        buf.sort()
                        if buf.size > keep_buf.size:  # tails overlap, so
                            keep_buf = np.empty(2 * buf.size, dtype=bool)
                            keep_buf[0] = True  # the concat can exceed n
                        keep = keep_buf[: buf.size]
                        np.not_equal(buf[1:], buf[:-1], out=keep[1:])
                        union = buf[keep]
                        live = concat(parts_r)
                        below = live[live != k]
                    if union.size == 0 or union[0] != k:
                        raise PatternError(
                            f"diagonal entry ({k},{k}) lost during merge"
                        )
                    u_out.append(union)
                    l_out.append(below)
                    if below.size:
                        tails[g_new] = union[1:]  # the shared post-merge tail
                        rows_of[g_new] = below
                    else:  # the group is exhausted
                        tails[g_new] = rows_of[g_new] = None

                steps = np.arange(c0, c1, dtype=np.int64)
                u_rows = np.repeat(steps, [u.size for u in u_out])
                u_cols = concat(u_out)
                emitted = u_cols.size
                if c1 < n:  # park the entries past the boundary with the
                    cross = u_cols >= c1  # chunk that owns them
                    if cross.any():
                        xr, xc = u_rows[cross], u_cols[cross]
                        dest = xc // chunk
                        order = np.argsort(dest, kind="stable")
                        xr, xc, dest = xr[order], xc[order], dest[order]
                        cuts = (np.flatnonzero(np.diff(dest)) + 1).tolist()
                        for lo, hi in zip([0, *cuts], [*cuts, dest.size]):
                            pending[int(dest[lo])].append((xr[lo:hi], xc[lo:hi]))
                        pending_bytes += xr.nbytes + xc.nbytes
                        u_rows, u_cols = u_rows[~cross], u_cols[~cross]
                l_cols = np.repeat(steps, [l.size for l in l_out])
                emitted += l_cols.size
                carried = pending[b]
                pending[b] = None
                del u_out
                # (col, row) pairs are unique — U contributes i <= j, L
                # i > j, each once — so one sort of the packed key
                # (col - c0) * n + row orders the chunk column-major.
                key = concat(
                    [(u_cols - c0) * n + u_rows, (l_cols - c0) * n + concat(l_out)]
                    + [(cc - c0) * n + rr for rr, cc in carried]
                )
                for rr, cc in carried:
                    pending_bytes -= rr.nbytes + cc.nbytes
                del u_rows, u_cols, l_cols, l_out, carried
                key.sort()
                piece = (key % n).astype(INDEX_DTYPE)
                counts = np.bincount(key // n, minlength=c1 - c0)
                np.cumsum(counts, out=indptr[c0 + 1 : c1 + 1])
                indptr[c0 + 1 : c1 + 1] += indptr[c0]
                peak = max(
                    peak,
                    base + out_bytes + pending_bytes + 8 * emitted + 3 * key.nbytes,
                )
                out_bytes += piece.nbytes
                pieces.append(piece)
                s.set(entries=int(piece.size))

    with tracer.span("symbolic.assemble", impl=impl) as s:
        indices = concat(pieces) if pieces else np.empty(0, dtype=INDEX_DTYPE)
        # The final concatenation transiently doubles the output itself.
        peak = max(peak, base + 2 * out_bytes)
        s.set(nnz=int(indices.size), peak_bytes=int(peak))
    if tracer.enabled and tracer.detail:
        tracer.metrics.gauge("symbolic.peak_bytes", unit="bytes").set(float(peak))
    return CSCMatrix(n, n, indptr, indices, None, check=False)


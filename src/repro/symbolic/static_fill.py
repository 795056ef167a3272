"""George-Ng static symbolic factorization (paper step (2)).

Given ``A`` with a zero-free diagonal, compute the pattern ``Ā = L̄ + Ū − I``
that contains the nonzeros of the LU factors of ``A`` for *all possible row
permutations that can appear due to partial pivoting* (George & Ng 1987, the
paper's reference [6]). The LU factorization is then computed on ``Ā``
instead of ``A`` — the S*/S+ approach the paper builds on.

The row-merge scheme: at step ``k`` the *candidate pivot rows* are all rows
``i ≥ k`` whose current structure contains column ``k``; any of them could be
brought to the diagonal by pivoting, so all of them receive the union of
their structures (restricted to columns ``≥ k``). After the union the
candidates are structurally identical, which is exactly why later row swaps
among them cannot create structure outside ``Ā``.

Two implementations are provided:

* :func:`static_symbolic_factorization_reference` — per-element Python
  ``set`` merge, sharing one tail object between merged rows so a later
  step unions distinct-tail *groups* rather than candidate rows. The
  oracle the tests and ``bench_symbolic`` call directly; no selector
  reaches it.
* :func:`static_symbolic_factorization_fast` — the same merge on flat
  sorted ``int64`` arrays with a union-find over merge groups (the
  shared-tail-object optimization in array form) and a fully vectorized
  column-wise assembly (``np.lexsort``/``np.bincount`` instead of per-row
  list appends). This is the production cold path of
  :func:`repro.serve.plan.build_plan`.

``static_symbolic_factorization`` dispatches between the fast kernel and
the chunked one (:mod:`repro.symbolic.chunked`) via the ``impl=``
argument or the ``REPRO_SYMBOLIC`` environment variable
(:mod:`repro.symbolic.dispatch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.sparse.convert import csc_to_csr
from repro.sparse.csc import CSCMatrix, INDEX_DTYPE
from repro.symbolic.dispatch import resolve_impl
from repro.util.errors import PatternError, ShapeError


@dataclass
class StaticFill:
    """Result of the static symbolic factorization.

    Attributes
    ----------
    pattern:
        Pattern-only CSC matrix of ``Ā = L̄ + Ū − I`` (diagonal always
        stored).
    nnz_original:
        Stored entries of the input ``A``.
    """

    pattern: CSCMatrix
    nnz_original: int

    @property
    def n(self) -> int:
        return self.pattern.n_cols

    @property
    def nnz(self) -> int:
        return self.pattern.nnz

    @property
    def fill_ratio(self) -> float:
        """``|Ā| / |A|`` — the last column of the paper's Table 1."""
        return self.nnz / max(1, self.nnz_original)

    def l_pattern(self) -> CSCMatrix:
        """Pattern of ``L̄`` (lower triangle including the diagonal)."""
        return _triangle(self.pattern, lower=True)

    def u_pattern(self) -> CSCMatrix:
        """Pattern of ``Ū`` (upper triangle including the diagonal)."""
        return _triangle(self.pattern, lower=False)

    def u_rows(self) -> list[np.ndarray]:
        """Row structures of ``Ū``: sorted column indices ``≥ i`` per row."""
        csr = csc_to_csr(self.pattern)
        return [
            csr.row_cols(i)[csr.row_cols(i) >= i].copy() for i in range(self.n)
        ]

    def l_cols(self) -> list[np.ndarray]:
        """Column structures of ``L̄``: sorted row indices ``≥ j`` per column."""
        return [
            self.pattern.col_rows(j)[self.pattern.col_rows(j) >= j].copy()
            for j in range(self.n)
        ]


def _triangle(pattern: CSCMatrix, *, lower: bool) -> CSCMatrix:
    n = pattern.n_cols
    indptr = np.zeros(n + 1, dtype=np.int64)
    chunks = []
    for j in range(n):
        rows = pattern.col_rows(j)
        part = rows[rows >= j] if lower else rows[rows <= j]
        chunks.append(part)
        indptr[j + 1] = indptr[j] + part.size
    indices = (
        np.concatenate(chunks).astype(INDEX_DTYPE)
        if chunks
        else np.empty(0, dtype=INDEX_DTYPE)
    )
    return CSCMatrix(n, n, indptr, indices, None, check=False)


def static_symbolic_factorization(
    a: CSCMatrix,
    *,
    impl: Optional[str] = None,
    chunk: Optional[int] = None,
    tracer=None,
) -> StaticFill:
    """Run the George-Ng row-merge scheme on the pattern of ``a``.

    ``a`` must be square with a zero-free diagonal (run the maximum
    transversal first — paper §2 and Duff [3]). ``impl`` selects the
    ``"fast"`` array kernel or the ``"chunked"`` streaming kernel
    (:mod:`repro.symbolic.chunked`) (default: ``$REPRO_SYMBOLIC``, then
    ``"fast"``); both produce identical patterns. ``chunk`` is the
    chunked kernel's column-chunk size (default: sized from ``n`` and
    ``nnz``) and is ignored by ``"fast"``. ``tracer`` (a
    :class:`repro.obs.trace.Tracer`) records ``symbolic.row_merge`` /
    ``symbolic.assemble`` child spans (plus ``symbolic.chunk`` children
    under ``"chunked"``).
    """
    if resolve_impl(impl) == "fast":
        return static_symbolic_factorization_fast(a, tracer=tracer)
    # Imported lazily: repro.symbolic.chunked imports StaticFill from
    # this module, so a top-level import would be circular.
    from repro.symbolic.chunked import static_symbolic_factorization_chunked

    return static_symbolic_factorization_chunked(a, chunk=chunk, tracer=tracer)


def _null_tracer(tracer):
    if tracer is not None:
        return tracer
    from repro.obs.trace import Tracer

    return Tracer(enabled=False)


def static_symbolic_factorization_reference(
    a: CSCMatrix, *, tracer=None
) -> StaticFill:
    """Set-based reference implementation (the property-test oracle)."""
    if not a.is_square:
        raise ShapeError("static symbolic factorization requires a square matrix")
    tr = _null_tracer(tracer)
    n = a.n_cols
    csr = csc_to_csr(a.pattern_only())

    # Current row tails (columns >= current step) and the inverted index
    # col_rows[j] = rows whose tail currently contains j (lazily pruned).
    tails: list[set[int]] = []
    for i in range(n):
        t = set(int(c) for c in csr.row_cols(i))
        if i not in t:
            raise PatternError(
                f"zero-free diagonal required: a[{i},{i}] is not stored "
                "(apply zero_free_diagonal_permutation first)"
            )
        tails.append(t)
    col_rows: list[set[int]] = [set() for _ in range(n)]
    for i, t in enumerate(tails):
        for j in t:
            col_rows[j].add(i)

    l_rows: list[list[int]] = [[] for _ in range(n)]  # L entries per row (< i)
    u_rows: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n

    with tr.span("symbolic.row_merge", impl="reference"):
        for k in range(n):
            candidates = [i for i in col_rows[k] if i >= k]
            col_rows[k] = set()  # never needed again
            if k not in tails[k]:
                raise PatternError(f"diagonal entry ({k},{k}) lost during merge")

            # Union of the distinct tail objects among candidates.
            distinct: dict[int, set[int]] = {}
            for i in candidates:
                distinct[id(tails[i])] = tails[i]
            tail_objs = list(distinct.values())
            if len(tail_objs) == 1:
                union = tail_objs[0]
            else:
                union = set().union(*tail_objs)

            u_rows[k] = np.fromiter(union, dtype=np.int64, count=len(union))
            u_rows[k].sort()

            below = [i for i in candidates if i > k]
            for i in below:
                l_rows[i].append(k)

            if below:
                new_tail = set(union)
                new_tail.discard(k)
                for old in tail_objs:
                    added = new_tail - old
                    if not added:
                        continue
                    sharers = [i for i in below if tails[i] is old]
                    for j in added:
                        col_rows[j].update(sharers)
                for i in below:
                    tails[i] = new_tail
            # Row k is frozen; drop its references.
            tails[k] = set()

    # Assemble Ā column-wise: column j = {L entries below j} ∪ {U entries
    # above j} ∪ {j}; we already have both halves by rows, so transpose the
    # row-wise union.
    with tr.span("symbolic.assemble", impl="reference"):
        cols: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            for j in l_rows[i]:
                cols[j].append(i)
            for j in u_rows[i]:
                cols[int(j)].append(i)
        indptr = np.zeros(n + 1, dtype=np.int64)
        chunks = []
        for j in range(n):
            arr = np.asarray(sorted(cols[j]), dtype=INDEX_DTYPE)
            chunks.append(arr)
            indptr[j + 1] = indptr[j] + arr.size
        indices = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=INDEX_DTYPE)
        )
        pattern = CSCMatrix(n, n, indptr, indices, None, check=False)
    return StaticFill(pattern=pattern, nnz_original=a.nnz)


def static_symbolic_factorization_fast(
    a: CSCMatrix, *, tracer=None
) -> StaticFill:
    """Array-form George-Ng merge: sorted ``int64`` tails + union-find.

    State is kept per *merge group*, not per row: after step ``k`` all
    candidate rows share one tail, so the reference implementation's
    shared-``set`` trick becomes a union-find whose roots own one sorted
    tail array and one live-row array each. Because a merged group's tail
    is the union of its constituents' tails, the initial column index of
    ``A`` (resolved through the union-find) always finds every group whose
    tail contains ``k`` — no per-merge inverted-index maintenance at all.
    The final pattern is assembled in one vectorized
    ``np.lexsort``/``np.bincount`` pass over the flat (row, col) entry
    arrays.
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

    # Zero-free diagonal validation, vectorized: an entry (i, j) with i == j
    # marks column j as having its diagonal stored.
    col_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(pat.indptr))
    has_diag = np.zeros(n, dtype=bool)
    has_diag[col_ids[pat.indices == col_ids]] = True
    if not bool(has_diag.all()):
        k = int(np.nonzero(~has_diag)[0][0])
        raise PatternError(
            f"zero-free diagonal required: a[{k},{k}] is not stored "
            "(apply zero_free_diagonal_permutation first)"
        )

    csr = csc_to_csr(pat)
    # Union-find over merge groups (group ids start out as row ids). A plain
    # Python list beats an int64 ndarray here: the walk does scalar reads and
    # writes, where numpy's per-element boxing dominates.
    uf = list(range(n))

    empty_i8 = np.empty(0, dtype=np.int64)
    # Root-group state: sorted tail columns (all >= current step) and the
    # group's live (unfrozen) rows. Dead/non-root slots hold None. Initial
    # tails are read-only views into one int64 copy of the CSR index array
    # (merges always build fresh arrays, never write through a tail).
    all_cols = csr.indices.astype(np.int64)
    row_ptr = csr.indptr.tolist()
    tails: list = [all_cols[row_ptr[i] : row_ptr[i + 1]] for i in range(n)]
    all_rows = np.arange(n, dtype=np.int64)
    rows_of: list = [all_rows[i : i + 1] for i in range(n)]

    u_rows: list = [empty_i8] * n  # Ū row structures (cols >= k, sorted)
    l_chunks: list = [empty_i8] * n  # L̄ column structures below the diagonal
    u_lens = np.zeros(n, dtype=np.int64)
    l_lens = np.zeros(n, dtype=np.int64)
    # mark[g] == k <=> group g already collected as a step-k candidate.
    mark = [-1] * n
    # Column iteration over plain ints: one bulk tolist() up front is far
    # cheaper than n slices of an int32 ndarray.
    col_entries = pat.indices.tolist()
    ptr = pat.indptr.tolist()
    concat = np.concatenate
    keep_buf = np.empty(n, dtype=bool)
    keep_buf[0] = True  # position 0 is always kept; the rest is per-step

    with tr.span("symbolic.row_merge", impl="fast"):
        for k in range(n):
            # Candidate groups: resolve the rows of column k of A through
            # the union-find. A group's tail contains k iff some member
            # row's original structure did, so the initial column index is
            # complete — merged-away ids just resolve to their root.
            cand: list[int] = []
            for r in col_entries[ptr[k] : ptr[k + 1]]:
                g = uf[r]
                while uf[g] != g:  # path halving
                    uf[g] = uf[uf[g]]
                    g = uf[g]
                uf[r] = g
                if mark[g] != k:
                    mark[g] = k
                    if rows_of[g] is not None:  # skip dead groups
                        cand.append(g)
            if len(cand) == 1:
                g0 = cand[0]
                union = tails[g0]
                live = rows_of[g0]
            else:
                # Sorted dedupe without np.unique: sort the concatenated
                # tails, then an adjacent-difference mask is the whole job
                # (np.unique re-sorts and carries overhead). keep_buf is
                # reused across steps to skip the allocation.
                buf = concat([tails[g] for g in cand])
                buf.sort()
                if buf.size > keep_buf.size:  # tails overlap, so the
                    keep_buf = np.empty(2 * buf.size, dtype=bool)  # concat can
                    keep_buf[0] = True  # exceed n
                keep = keep_buf[: buf.size]
                np.not_equal(buf[1:], buf[:-1], out=keep[1:])
                union = buf[keep]
                live = concat([rows_of[g] for g in cand])
            if union.size == 0 or union[0] != k:
                raise PatternError(f"diagonal entry ({k},{k}) lost during merge")

            u_rows[k] = union
            u_lens[k] = union.size
            if live.size == 1:  # the lone live row must be k itself
                below = empty_i8
            else:
                below = live[live != k]  # live rows are >= k; freeze row k now
            l_chunks[k] = below
            l_lens[k] = below.size

            g_new = cand[0]
            for g in cand[1:]:
                uf[g] = g_new
                tails[g] = None
                rows_of[g] = None
            if below.size:
                tails[g_new] = union[1:]  # the shared post-merge tail
                rows_of[g_new] = below
            else:
                tails[g_new] = None  # group is exhausted
                rows_of[g_new] = None

    # Assemble Ā column-wise in one vectorized pass: U entries are
    # (i, j in u_rows[i]) with i <= j, L entries are (i in l_chunks[k], k)
    # with i > k; the two halves are disjoint, so a single lexsort by
    # (column, row) yields the sorted CSC index array directly.
    with tr.span("symbolic.assemble", impl="fast"):
        arange_n = np.arange(n, dtype=np.int64)
        rows_all = np.concatenate(
            [np.repeat(arange_n, u_lens), np.concatenate(l_chunks)]
        )
        cols_all = np.concatenate(
            [np.concatenate(u_rows), np.repeat(arange_n, l_lens)]
        )
        order = np.lexsort((rows_all, cols_all))
        indices = rows_all[order].astype(INDEX_DTYPE)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols_all, minlength=n), out=indptr[1:])
        pattern = CSCMatrix(n, n, indptr, indices, None, check=False)
    return StaticFill(pattern=pattern, nnz_original=a.nnz)


def simulate_elimination_fill(
    a: CSCMatrix,
    pivot_choice: Optional[Callable[[int, list[int]], int]] = None,
) -> CSCMatrix:
    """Exact fill pattern of one pivoting sequence (test oracle).

    Simulates Gaussian elimination on the *pattern*: at step ``k``,
    ``pivot_choice(k, candidates)`` picks which candidate row is swapped to
    the diagonal (default: the diagonal row itself when possible, else the
    first candidate), then the usual fill rule is applied. The returned
    pattern must always be contained in the static fill — the George-Ng
    guarantee that the property tests assert.
    """
    if not a.is_square:
        raise ShapeError("square matrix required")
    n = a.n_cols
    csr = csc_to_csr(a.pattern_only())
    rows = [set(int(c) for c in csr.row_cols(i)) for i in range(n)]

    final_rows: list[set[int]] = [set() for _ in range(n)]
    for k in range(n):
        candidates = [i for i in range(k, n) if k in rows[i]]
        if not candidates:
            raise PatternError(f"structurally singular at step {k}")
        if pivot_choice is None:
            choice = k if k in candidates else candidates[0]
        else:
            choice = pivot_choice(k, candidates)
            if choice not in candidates:
                raise PatternError(f"pivot_choice returned non-candidate {choice}")
        rows[k], rows[choice] = rows[choice], rows[k]
        final_rows[k] |= rows[k]
        pivot_tail = {c for c in rows[k] if c > k}
        for i in range(k + 1, n):
            if k in rows[i]:
                final_rows[i].add(k)
                rows[i] |= pivot_tail
                rows[i].discard(k)

    cols: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in final_rows[i]:
            cols[j].append(i)
    indptr = np.zeros(n + 1, dtype=np.int64)
    chunks = []
    for j in range(n):
        arr = np.asarray(sorted(set(cols[j])), dtype=INDEX_DTYPE)
        chunks.append(arr)
        indptr[j + 1] = indptr[j] + arr.size
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=INDEX_DTYPE)
    return CSCMatrix(n, n, indptr, indices, None, check=False)


def ata_cholesky_bound(a: CSCMatrix) -> CSCMatrix:
    """Symbolic Cholesky fill of ``AᵀA`` (SuperLU's structure bound).

    George & Ng showed the static fill is contained in the Cholesky fill of
    ``AᵀA``; SuperLU uses the column etree of this pattern. Returned as the
    pattern of ``L + Lᵀ`` so it is directly comparable with ``Ā``.
    """
    from repro.sparse.pattern import ata_pattern

    b = ata_pattern(a)
    n = b.n_cols
    # Symbolic Cholesky by row-merge on the symmetric pattern: struct(L_*j)
    # = pattern(B_*j, >=j) ∪ (∪_{children c} struct(L_*c) \ {c}).
    parent = np.full(n, -1, dtype=np.int64)
    struct: list[set[int]] = []
    children: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        s = {int(i) for i in b.col_rows(j) if i >= j}
        s.add(j)
        for c in children[j]:
            s |= {x for x in struct[c] if x > c and x != j} | {j}
            # (x > c excludes c itself; x != j avoids re-adding j, harmless)
        struct.append(s)
        above = [x for x in s if x > j]
        if above:
            p = min(above)
            parent[j] = p
            children[p].append(j)

    cols: list[list[int]] = [[] for _ in range(n)]
    for j in range(n):
        for i in struct[j]:
            cols[j].append(i)
            if i != j:
                cols[i].append(j)
    indptr = np.zeros(n + 1, dtype=np.int64)
    chunks = []
    for j in range(n):
        arr = np.asarray(sorted(set(cols[j])), dtype=INDEX_DTYPE)
        chunks.append(arr)
        indptr[j + 1] = indptr[j] + arr.size
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=INDEX_DTYPE)
    return CSCMatrix(n, n, indptr, indices, None, check=False)

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
* :func:`static_symbolic_factorization` — the same merge on flat sorted
  ``int64`` arrays with a union-find over merge groups (the shared-tail
  optimization in array form, :func:`row_merge`), assembled by one sort
  at the end. This is the production cold path of
  :func:`repro.serve.plan.build_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.sparse.convert import csc_to_csr
from repro.sparse.csc import CSCMatrix, INDEX_DTYPE
from repro.symbolic.dispatch import resolve_impl
from repro.util.errors import PatternError, ShapeError

_EMPTY_I8 = np.empty(0, dtype=np.int64)

#: Latent initial-group marker in the ``tails`` / ``rows_of`` slots of
#: :func:`row_merge` — distinct from ``None`` (a dead group).
_INITIAL = object()


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
    parent:
        The LU eforest of ``Ā`` (Definition 1, ``-1`` marks roots), as the
        merge that built the pattern emitted it; read-only.
    """

    pattern: CSCMatrix
    nnz_original: int
    parent: np.ndarray

    def __post_init__(self) -> None:
        self.parent = np.array(self.parent, dtype=np.int64)
        self.parent.setflags(write=False)

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
    tracer=None,
) -> StaticFill:
    """Run the George-Ng row-merge scheme on the pattern of ``a``.

    ``a`` must be square with a zero-free diagonal (run the maximum
    transversal first — paper §2 and Duff [3]). ``impl`` accepts only
    ``"fast"``, the one kernel's name (:mod:`repro.symbolic.dispatch`).
    ``tracer`` (a :class:`repro.obs.trace.Tracer`) records
    ``symbolic.row_merge`` and ``symbolic.assemble`` child spans.
    """
    if impl is not None:
        resolve_impl(impl)
    if not a.is_square:
        raise ShapeError("static symbolic factorization requires a square matrix")
    pattern, parent = row_merge(a.pattern_only(), tracer=_null_tracer(tracer))
    return StaticFill(pattern=pattern, nnz_original=a.nnz, parent=parent)


def row_merge(pat: CSCMatrix, *, tracer) -> tuple[CSCMatrix, np.ndarray]:
    """Pattern of ``Ā`` and its LU eforest for the square pattern ``pat``.

    State is kept per *merge group*, not per row: after step ``k`` all
    candidate rows share one tail, so the shared-``set`` trick of the
    reference kernel becomes a union-find whose roots own one sorted
    ``int64`` tail and one array of live rows each. A merged group's tail
    is the union of its constituents' tails, so the initial column index
    of ``A`` (resolved through the union-find) always finds every group
    whose tail contains ``k``: there is no inverted index to maintain.
    Initial groups stay *latent* until their first merge (their arrays are
    sliced out of one flat copy of the CSR indices on demand), so no
    Python object is held per untouched row. Step ``k`` emits Ū row ``k``
    and L̄ column ``k``; one sort of their ``(col, row)`` keys assembles
    the CSC pattern. The two are all Definition 1 asks of node ``k``, so
    the step also emits ``parent[k]``: the first column after ``k`` of
    Ū row ``k`` when L̄ column ``k`` has an entry below the diagonal.

    The ``symbolic.assemble`` span carries ``nnz`` and the kernel's model
    of its peak live entry bytes, also published as the
    ``symbolic.peak_bytes`` gauge when the tracer records detail metrics.
    """
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
    parent = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return CSCMatrix(
            0, 0, np.zeros(1, dtype=np.int64), np.empty(0, dtype=INDEX_DTYPE),
            None, check=False,
        ), parent

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
    keep_buf = np.empty(n, dtype=bool)  # reused dedupe mask
    keep_buf[0] = True
    concat = np.concatenate
    # Column k's rows of A, as plain ints: one tolist() is far cheaper
    # than a slice of the int32 array per step.
    col_rows = pat.indices.tolist()
    col_ptr = pat.indptr.tolist()
    u_out: list = []  # Ū row k
    l_out: list = []  # L̄ column k below the diagonal

    with tracer.span("symbolic.row_merge"):
        for k, lo, hi in zip(range(n), col_ptr, col_ptr[1:]):
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
                # Sorted dedupe without np.unique: sort the concatenated
                # tails, then an adjacent-difference mask is the whole job.
                buf = concat(parts_t)
                buf.sort()
                if buf.size > keep_buf.size:  # tails overlap, so the
                    keep_buf = np.empty(2 * buf.size, dtype=bool)
                    keep_buf[0] = True  # concat can exceed n
                keep = keep_buf[: buf.size]
                np.not_equal(buf[1:], buf[:-1], out=keep[1:])
                union = buf[keep]
                live = concat(parts_r)
                below = live[live != k]
            if union.size == 0 or union[0] != k:
                raise PatternError(f"diagonal entry ({k},{k}) lost during merge")
            u_out.append(union)
            l_out.append(below)
            if below.size:
                tails[g_new] = union[1:]  # the shared post-merge tail
                rows_of[g_new] = below
                # Every row of below keeps its own diagonal (> k) in
                # the tail, so union[1] exists.
                parent[k] = union[1]
            else:  # the group is exhausted
                tails[g_new] = rows_of[g_new] = None

    with tracer.span("symbolic.assemble") as s:
        steps = np.arange(n, dtype=np.int64)
        u_rows = np.repeat(steps, [u.size for u in u_out])
        u_cols = concat(u_out)
        del u_out
        l_cols = np.repeat(steps, [l.size for l in l_out])
        emitted = u_cols.size + l_cols.size
        # (col, row) pairs are unique — U contributes i <= j, L i > j,
        # each once — so one sort of the packed key col * n + row orders
        # the pattern column-major.
        key = concat([u_cols * n + u_rows, l_cols * n + concat(l_out)])
        del u_rows, u_cols, l_cols, l_out
        key.sort()
        indices = (key % n).astype(INDEX_DTYPE)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
        # Peak-bytes model, taken at the sort: the input copies, 8 B per
        # emitted fragment entry, and 24 B per entry of the packed sort
        # keys and their decode scratch.
        peak = all_cols.nbytes + all_rows.nbytes + 8 * emitted + 3 * key.nbytes
        s.set(nnz=int(indices.size), peak_bytes=int(peak))
    if tracer.enabled and tracer.detail:
        tracer.metrics.gauge("symbolic.peak_bytes", unit="bytes").set(float(peak))
    return CSCMatrix(n, n, indptr, indices, None, check=False), parent


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
    parent = [-1] * n  # Definition 1, from this loop's own union and below

    with tr.span("symbolic.row_merge"):
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
                parent[k] = min(new_tail)
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
    with tr.span("symbolic.assemble"):
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
    return StaticFill(pattern=pattern, nnz_original=a.nnz, parent=parent)


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

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
  optimization in array form), assembled column chunk by column chunk
  (:func:`repro.symbolic.chunked.row_merge`). The ``impl=`` argument or
  the ``REPRO_SYMBOLIC`` environment variable
  (:mod:`repro.symbolic.dispatch`) picks the chunk size: ``"fast"`` runs
  one chunk, ``"chunked"`` streams ``chunk=`` columns at a time. This is
  the production cold path of :func:`repro.serve.plan.build_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.sparse.convert import csc_to_csr
from repro.sparse.csc import CSCMatrix, INDEX_DTYPE
from repro.symbolic.chunked import resolve_chunk, row_merge
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
    transversal first — paper §2 and Duff [3]). ``impl`` (default:
    ``$REPRO_SYMBOLIC``, then ``"fast"``) sets how many columns the merge
    assembles at a time: ``"fast"`` all ``n`` at once, ``"chunked"``
    ``chunk`` (default: sized from ``n`` and ``nnz`` by
    :func:`repro.symbolic.chunked.auto_chunk_size`); ``"fast"`` ignores
    ``chunk``. Every chunk size produces the identical pattern. ``tracer``
    (a :class:`repro.obs.trace.Tracer`) records ``symbolic.row_merge``
    (with one ``symbolic.chunk`` child per chunk) and ``symbolic.assemble``
    child spans.
    """
    impl = resolve_impl(impl)
    if not a.is_square:
        raise ShapeError("static symbolic factorization requires a square matrix")
    pat = a.pattern_only()
    n = a.n_cols
    size = max(n, 1) if impl == "fast" else resolve_chunk(chunk, n, pat.nnz)
    pattern = row_merge(pat, size, impl=impl, tracer=_null_tracer(tracer))
    return StaticFill(pattern=pattern, nnz_original=a.nnz)


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

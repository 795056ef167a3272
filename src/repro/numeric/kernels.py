"""Dense BLAS-3-style kernels for the supernodal factorization.

These wrap NumPy (which dispatches to the platform BLAS) exactly where the
paper used SCSL: the panel LU inside ``Factor(k)`` and the TRSM/GEMM pair
inside ``Update(k,j)``. The Python-level work of each kernel is independent
of the panel width beyond one short base case per four columns: the panel
LU recurses on column halves and moves its flops through GEMM, and every
triangular solve is one GEMM with an explicit inverse of the (small)
diagonal block. Flop formulas match the classical counts and feed the
machine model used to regenerate Table 2 and Figures 5-6.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.util.errors import ShapeError, SingularMatrixError

Matrix = NDArray[np.float64]

#: Widest column range the panel LU factors column by column.
_BASE_WIDTH = 4


def lu_panel_inplace(
    m: Matrix, w: int
) -> tuple[NDArray[np.int64], Matrix, Matrix]:
    """Partial-pivoted LU of the leading ``w`` columns of panel ``m``.

    ``m`` has shape ``(rows, w)`` with ``rows >= w``; on return it holds the
    unit-lower factor below the diagonal and ``U`` on/above it. Pivots are
    searched over the whole remaining panel (all candidate rows).

    Recursive on column halves (Toledo): factor the left half, finish the
    right half's top block with one triangular solve, push one GEMM into
    the rows below, factor the right half. Row swaps always move whole
    rows of ``m``, so the halves never need a separate permutation pass.
    The triangular solve is a GEMM with the left half's ``L⁻¹``, which the
    recursion assembles bottom-up together with ``U⁻¹``; both inverses of
    the whole ``(w, w)`` diagonal block fall out at the top.

    Returns
    -------
    order:
        Local permutation: ``order[p]`` is the original local row now at
        position ``p``.
    linv, uinv:
        :func:`triangular_inverses` of the factored diagonal block.
    """
    rows = m.shape[0]
    if m.ndim != 2 or m.shape[1] != w:
        raise ShapeError(f"panel shape {m.shape} does not match width {w}")
    if rows < w:
        raise ShapeError(f"panel has {rows} rows < width {w}")
    order = np.arange(rows, dtype=np.int64)
    linv = np.zeros((w, w), dtype=np.float64)
    uinv = np.zeros((w, w), dtype=np.float64)
    _lu_columns(m, 0, w, order, linv, uinv)
    return order, linv, uinv


def _lu_columns(
    m: Matrix, lo: int, hi: int, order: NDArray[np.int64], linv: Matrix, uinv: Matrix
) -> None:
    """Factor columns ``lo:hi`` of ``m`` over rows ``lo:`` in place and
    fill the ``lo:hi`` diagonal blocks of ``linv``/``uinv``."""
    if hi - lo > _BASE_WIDTH:
        mid = (lo + hi) // 2
        _lu_columns(m, lo, mid, order, linv, uinv)
        top = m[lo:mid, mid:hi]
        top[...] = linv[lo:mid, lo:mid] @ top
        m[mid:, mid:hi] -= m[mid:, lo:mid] @ top
        _lu_columns(m, mid, hi, order, linv, uinv)
        _join_inverses(m, lo, mid, hi, linv, uinv)
        return
    rows = m.shape[0]
    for c in range(lo, hi):
        p = c + int(np.abs(m[c:, c]).argmax())
        piv = m[p, c]
        if piv == 0.0:
            raise SingularMatrixError(f"zero pivot in panel column {c}")
        if p != c:
            held = m[c].copy()
            m[c] = m[p]
            m[p] = held
            order[c], order[p] = order[p], order[c]
        if c + 1 < rows:
            m[c + 1 :, c] /= piv
            if c + 1 < hi:
                m[c + 1 :, c + 1 : hi] -= m[c + 1 :, c, None] * m[c, c + 1 : hi]
    _leaf_inverses(m, lo, hi, linv, uinv)


def _leaf_inverses(d: Matrix, lo: int, hi: int, linv: Matrix, uinv: Matrix) -> None:
    """Invert the two triangles of ``d[lo:hi, lo:hi]`` (at most
    ``_BASE_WIDTH`` wide) by substitution, a row at a time."""
    linv[lo, lo] = 1.0
    for r in range(lo + 1, hi):
        linv[r, r] = 1.0
        linv[r, lo:r] = -(d[r, lo:r] @ linv[lo:r, lo:r])
    for r in range(hi - 1, lo - 1, -1):
        piv = d[r, r]
        uinv[r, r] = 1.0 / piv
        if r + 1 < hi:
            uinv[r, r + 1 : hi] = (d[r, r + 1 : hi] @ uinv[r + 1 : hi, r + 1 : hi]) / -piv


def _join_inverses(
    d: Matrix, lo: int, mid: int, hi: int, linv: Matrix, uinv: Matrix
) -> None:
    """Off-diagonal blocks of the ``lo:hi`` inverses from the finished
    ``lo:mid`` and ``mid:hi`` ones: ``−B⁻¹ C A⁻¹`` below for ``L``, and
    ``−A⁻¹ C B⁻¹`` above for ``U``."""
    linv[mid:hi, lo:mid] = -(linv[mid:hi, mid:hi] @ d[mid:hi, lo:mid]) @ linv[lo:mid, lo:mid]
    uinv[lo:mid, mid:hi] = -(uinv[lo:mid, lo:mid] @ d[lo:mid, mid:hi]) @ uinv[mid:hi, mid:hi]


def triangular_inverses(block: Matrix) -> tuple[Matrix, Matrix]:
    """``(L⁻¹, U⁻¹)`` of a factored diagonal block: the inverse of its unit
    lower triangle (the stored diagonal belongs to ``U``) and of its upper
    triangle — what turns every triangular solve against the block into a
    GEMM.

    Runs the panel LU's recursion on the finished values, operation for
    operation, so an engine that only *reads* a factored panel derives the
    bits ``Factor(k)`` got as a by-product.
    """
    w = block.shape[0]
    linv = np.zeros((w, w), dtype=np.float64)
    uinv = np.zeros((w, w), dtype=np.float64)
    _fill_inverses(block, 0, w, linv, uinv)
    return linv, uinv


def _fill_inverses(d: Matrix, lo: int, hi: int, linv: Matrix, uinv: Matrix) -> None:
    if hi - lo > _BASE_WIDTH:
        mid = (lo + hi) // 2
        _fill_inverses(d, lo, mid, linv, uinv)
        _fill_inverses(d, mid, hi, linv, uinv)
        _join_inverses(d, lo, mid, hi, linv, uinv)
    else:
        _leaf_inverses(d, lo, hi, linv, uinv)


def lu_panel_flops(rows: int, w: int) -> int:
    """Flop count of :func:`lu_panel_inplace` on a ``rows x w`` panel.

    Column ``c < min(w, rows - 1)`` scales ``rows − c − 1`` entries and
    rank-1 updates them against ``w − c − 1`` columns; summed in closed
    form.
    """
    t = max(0, min(w, rows - 1))
    s1 = t * (t - 1) // 2  # Σ c
    s2 = (t - 1) * t * (2 * t - 1) // 6  # Σ c²
    r, v = rows - 1, w - 1
    return t * r - s1 + 2 * (t * r * v - (r + v) * s1 + s2)


def trsm_flops(w_src: int, w_dst: int) -> int:
    """Flop count of the TRSM half of ``Update(k,j)`` (``w_src²·w_dst``)."""
    return w_src * w_src * w_dst


def gemm_flops(rows_below: int, w_src: int, w_dst: int) -> int:
    """Flop count of the GEMM half of ``Update(k,j)`` (multiply-add pairs)."""
    return 2 * rows_below * w_src * w_dst


def update_flops(w_src: int, rows_below: int, w_dst: int) -> int:
    """Flop count of ``Update(k,j)``: TRSM (``w_src²·w_dst``) + GEMM.

    Split into :func:`trsm_flops` + :func:`gemm_flops`; the observability
    layer (``kernel.trsm.flops`` / ``kernel.gemm.flops`` counters) uses the
    halves so the BLAS-ramp model can be fed per-kernel-class.
    """
    return trsm_flops(w_src, w_dst) + gemm_flops(rows_below, w_src, w_dst)

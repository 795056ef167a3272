"""Dense BLAS-3-style kernels for the supernodal factorization.

These wrap NumPy (which dispatches to the platform BLAS) exactly where the
paper used SCSL: the panel LU inside ``Factor(k)`` and the TRSM/GEMM pair
inside ``Update(k,j)``. Every triangular solve is one GEMM with an explicit
inverse of the (small) diagonal block: ``Factor(k)`` produces ``L⁻¹`` as it
eliminates, and the solves' ``U⁻¹`` is built once per factorization, a
width class at a time. The panel LU and ``L⁻¹`` are elementwise NumPy
only — no BLAS call whose bits could depend on an operand's shape — so a
process that only reads a factored panel derives ``Factor(k)``'s ``L⁻¹``
bit for bit. Flop formulas match the classical counts and feed the machine
model used to regenerate Table 2 and Figures 5-6.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.util.errors import ShapeError, SingularMatrixError

Matrix = NDArray[np.float64]

#: Widest diagonal block :func:`upper_inverse` inverts column by column;
#: wider ones it splits in halves.
_BASE_WIDTH = 4


def lu_panel_inplace(m: Matrix, w: int) -> tuple[NDArray[np.int64], Matrix]:
    """Partial-pivoted LU of the leading ``w`` columns of panel ``m``.

    ``m`` has shape ``(rows, w)`` with ``rows >= w``; on return it holds the
    unit-lower factor below the diagonal and ``U`` on/above it. Pivots are
    searched over the whole remaining panel (all candidate rows).

    Unblocked right-looking elimination of a packed copy of the rows that
    can take part: the ``w`` diagonal rows and every row below them that is
    not all zero. A zero row never wins a pivot search and its multipliers
    stay exactly zero, so it is left untouched (not even a ``0.0 → -0.0``
    flip). The copy carries ``w`` more columns in which the same rank-1
    updates build ``L⁻¹``: a row is tagged with its unit vector when it
    becomes pivot row ``c``, and every row below subtracts its multiple of
    that tag — forward substitution on the identity, operation for
    operation the one :func:`unit_lower_inverse` runs.

    Returns
    -------
    order:
        Local permutation: ``order[p]`` is the original local row now at
        position ``p``.
    linv:
        ``L⁻¹`` of the factored diagonal block (``unit_lower_inverse(m[:w])``).
    """
    rows = m.shape[0]
    if m.ndim != 2 or m.shape[1] != w:
        raise ShapeError(f"panel shape {m.shape} does not match width {w}")
    if rows < w:
        raise ShapeError(f"panel has {rows} rows < width {w}")
    pos = np.concatenate((np.arange(w), m[w:].any(axis=1).nonzero()[0] + w))
    n = pos.size
    a = np.zeros((n, 2 * w))
    a[:, :w] = m.take(pos, axis=0)
    at = pos.tolist()
    for c in range(w):
        p = c + int(np.abs(a[c:, c]).argmax())
        piv = a[p, c]
        if piv == 0.0:
            raise SingularMatrixError(f"zero pivot in panel column {c}")
        if p != c:
            held = a[c].copy()
            a[c] = a[p]
            a[p] = held
            at[c], at[p] = at[p], at[c]
        a[c, w + c] = 1.0
        if c + 1 < n:
            l = a[c + 1 :, c]
            l /= piv
            if c + 1 < w:  # the last column's tags reach rows below the block only
                a[c + 1 :, c + 1 : w + c + 1] -= l[:, None] * a[c, c + 1 : w + c + 1]
    m[pos] = a[:, :w]
    order = np.arange(rows, dtype=np.int64)
    order[pos] = at
    return order, a[:w, w:].copy()


def unit_lower_inverse(d: Matrix) -> Matrix:
    """``L⁻¹`` of the unit lower triangle of ``d`` (the stored diagonal
    belongs to ``U``), for one ``(w, w)`` block or a stack ``(…, w, w)``.

    Column-oriented forward substitution on the identity, the rank-1 update
    :func:`lu_panel_inplace` applies to its tags: the same products and
    differences in the same order, hence the same bits."""
    w = d.shape[-1]
    x = np.zeros(d.shape)
    for c in range(w):
        x[..., c, c] = 1.0
        x[..., c + 1 :, : c + 1] -= d[..., c + 1 :, c, None] * x[..., c, None, : c + 1]
    return x


def upper_inverse(d: Matrix) -> Matrix:
    """``U⁻¹`` of the upper triangle of ``d``, for one ``(w, w)`` block or a
    stack ``(…, w, w)`` (the block solves invert a width class at a time).

    Wider than ``_BASE_WIDTH``, by halves — ``[A B; 0 C]⁻¹ = [A⁻¹,
    −A⁻¹BC⁻¹; 0, C⁻¹]`` with ``A`` and ``C`` inverted as one stack (an odd
    width gains a unit diagonal entry first); narrower, by column-oriented
    back substitution on the identity."""
    w = d.shape[-1]
    d3 = d.reshape(-1, w, w)
    n, h = d3.shape[0], (w + 1) // 2
    if w <= _BASE_WIDTH:
        x = np.zeros(d3.shape)
        for c in range(w - 1, -1, -1):
            x[:, c, c] = 1.0
            x[:, c, c:] /= d3[:, c, c, None]
            x[:, :c, c:] -= d3[:, :c, c, None] * x[:, c, None, c:]
    elif 2 * h > w:
        x = np.zeros((n, w + 1, w + 1))
        x[:, w, w] = 1.0
        x[:, :w, :w] = d3
        x = upper_inverse(x)[:, :w, :w]
    else:
        halves = upper_inverse(np.concatenate((d3[:, :h, :h], d3[:, h:, h:])))
        x = np.zeros(d3.shape)
        x[:, :h, :h], x[:, h:, h:] = halves[:n], halves[n:]
        x[:, :h, h:] = -(halves[:n] @ d3[:, :h, h:]) @ halves[n:]
    return x.reshape(d.shape)


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

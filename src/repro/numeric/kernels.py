"""Dense BLAS-3-style kernels for the supernodal factorization.

These wrap NumPy (which dispatches to the platform BLAS) exactly where the
paper used SCSL: the panel LU inside ``Factor(k)`` and the TRSM/GEMM pair
inside ``Update(k,j)``. Flop formulas match the classical counts and feed the
machine model used to regenerate Table 2 and Figures 5-6.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ShapeError, SingularMatrixError


def lu_panel_inplace(m: np.ndarray, w: int) -> np.ndarray:
    """Partial-pivoted LU of the leading ``w`` columns of panel ``m``.

    ``m`` has shape ``(rows, w)`` with ``rows >= w``; on return it holds the
    unit-lower factor below the diagonal and ``U`` on/above it. Pivots are
    searched over the whole remaining panel (all candidate rows).

    Returns
    -------
    order:
        Local permutation: ``order[p]`` is the original local row now at
        position ``p``.
    """
    rows = m.shape[0]
    if m.ndim != 2 or m.shape[1] != w:
        raise ShapeError(f"panel shape {m.shape} does not match width {w}")
    if rows < w:
        raise ShapeError(f"panel has {rows} rows < width {w}")
    order = np.arange(rows, dtype=np.int64)
    for c in range(w):
        p = c + int(np.argmax(np.abs(m[c:, c])))
        piv = m[p, c]
        if piv == 0.0:
            raise SingularMatrixError(f"zero pivot in panel column {c}")
        if p != c:
            m[[c, p], :] = m[[p, c], :]
            order[[c, p]] = order[[p, c]]
        if c + 1 < rows:
            m[c + 1 :, c] /= piv
            if c + 1 < w:
                m[c + 1 :, c + 1 :] -= np.outer(m[c + 1 :, c], m[c, c + 1 :])
    return order


def solve_unit_lower(l_block: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L X = rhs`` with ``L`` unit lower triangular (TRSM).

    Only the strictly-lower part of ``l_block`` is read.
    """
    w = l_block.shape[0]
    x = rhs.astype(np.float64, copy=True)
    for c in range(w):
        if c:
            x[c, :] -= l_block[c, :c] @ x[:c, :]
    return x


def solve_upper(u_block: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``U X = rhs`` with ``U`` upper triangular (diagonal from U)."""
    w = u_block.shape[0]
    x = rhs.astype(np.float64, copy=True)
    for c in range(w - 1, -1, -1):
        piv = u_block[c, c]
        if piv == 0.0:
            raise SingularMatrixError(f"zero diagonal in upper solve at {c}")
        x[c, :] /= piv
        if c:
            x[:c, :] -= np.outer(u_block[:c, c], x[c, :])
    return x


def lu_panel_flops(rows: int, w: int) -> int:
    """Flop count of :func:`lu_panel_inplace` on a ``rows x w`` panel."""
    total = 0
    for c in range(w):
        below = max(0, rows - c - 1)
        total += below  # scaling divisions
        total += 2 * below * max(0, w - c - 1)  # rank-1 update
    return total


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

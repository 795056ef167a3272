"""The column-at-a-time kernels the factorization ran before its kernels
went width-independent, kept verbatim as test oracles: one Python-level
iteration per column, nothing shared with :mod:`repro.numeric.kernels`."""

import numpy as np

from repro.util.errors import SingularMatrixError


def lu_panel_loop(m: np.ndarray, w: int) -> np.ndarray:
    """Partial-pivoted LU of ``m``'s ``w`` columns by one rank-1 update of
    the whole trailing panel per column; returns the row order."""
    rows = m.shape[0]
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
    """Solve ``L X = rhs`` by forward substitution, ``L`` unit lower
    triangular; only the strictly-lower part of ``l_block`` is read."""
    w = l_block.shape[0]
    x = rhs.astype(np.float64, copy=True)
    for c in range(w):
        if c:
            x[c, :] -= l_block[c, :c] @ x[:c, :]
    return x


def solve_upper(u_block: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``U X = rhs`` by back substitution (diagonal from ``U``)."""
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


def lu_panel_flops_loop(rows: int, w: int) -> int:
    """Flop count of the panel LU, summed column by column."""
    total = 0
    for c in range(w):
        below = max(0, rows - c - 1)
        total += below  # scaling divisions
        total += 2 * below * max(0, w - c - 1)  # rank-1 update
    return total

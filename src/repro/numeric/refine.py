"""Post-solve quality tooling: iterative refinement and condition estimation.

Production direct solvers (SuperLU, UMFPACK, the S+ lineage) pair the
factorization with a cheap accuracy loop; we provide the same so downstream
users can trust solutions on ill-conditioned reservoir/fluid systems.

* :func:`iterative_refinement` — classical fixed-precision refinement:
  repeat ``x += A⁻¹ (b − A x)`` using the existing factors until the
  backward error stagnates or drops below tolerance.
* :func:`condest_1norm` — Hager-Higham style 1-norm condition estimate
  using only factor solves with ``A`` and ``Aᵀ``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.numeric.triangular import lower_unit_solve_csc, upper_solve_csc
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import matvec


@dataclass
class RefinementResult:
    """Outcome of iterative refinement."""

    x: np.ndarray
    iterations: int
    backward_errors: list[float]
    converged: bool


def backward_error(a: CSCMatrix, x: np.ndarray, b: np.ndarray) -> float:
    """Componentwise-normwise backward error ``‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)``."""
    r = b - matvec(a, x)
    a_norm = _inf_norm(a)
    denom = a_norm * float(np.max(np.abs(x), initial=0.0)) + float(
        np.max(np.abs(b), initial=0.0)
    )
    if denom == 0.0:
        return 0.0
    return float(np.max(np.abs(r))) / denom


def _inf_norm(a: CSCMatrix) -> float:
    row_sums = np.zeros(a.n_rows)
    for j in range(a.n_cols):
        rows = a.col_rows(j)
        if rows.size:
            np.add.at(row_sums, rows, np.abs(a.col_values(j)))
    return float(row_sums.max(initial=0.0))


def iterative_refinement(
    a: CSCMatrix,
    solve: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    *,
    max_iters: int = 5,
    tol: float = 1e-14,
) -> RefinementResult:
    """Refine ``solve(b)`` with residual corrections through ``solve``.

    Parameters
    ----------
    a:
        The original matrix (used for residuals).
    solve:
        A solver for ``A z = r`` — typically
        :meth:`repro.serve.NumericFactorization.solve`.
    b:
        Right-hand side.
    max_iters:
        Upper bound on correction steps.
    tol:
        Stop once the backward error is at or below this.
    """
    b = np.asarray(b, dtype=np.float64)
    x = solve(b)
    errors = [backward_error(a, x, b)]
    for it in range(1, max_iters + 1):
        if errors[-1] <= tol:
            return RefinementResult(x=x, iterations=it - 1, backward_errors=errors, converged=True)
        r = b - matvec(a, x)
        dx = solve(r)
        x = x + dx
        err = backward_error(a, x, b)
        errors.append(err)
        if err >= errors[-2] * 0.5:  # stagnation: stop wasting solves
            break
    return RefinementResult(
        x=x,
        iterations=len(errors) - 1,
        backward_errors=errors,
        converged=errors[-1] <= tol,
    )


def condest_1norm(
    a: CSCMatrix,
    l_factor: CSCMatrix,
    u_factor: CSCMatrix,
    orig_at: np.ndarray,
    *,
    max_sweeps: int = 5,
) -> float:
    """Estimate ``κ₁(A) = ‖A‖₁ ‖A⁻¹‖₁`` via Hager-Higham power iteration.

    Only uses triangular solves with the computed factors (and their
    transposes), exactly like LAPACK's ``gecon``.
    """
    from repro.numeric.triangular import (
        lower_transpose_unit_solve_csc,
        upper_transpose_solve_csc,
    )

    n = a.n_cols
    if n == 0:
        return 0.0
    a_norm = max(
        (float(np.sum(np.abs(a.col_values(j)))) for j in range(n)), default=0.0
    )

    def solve_a(v: np.ndarray) -> np.ndarray:
        y = lower_unit_solve_csc(l_factor, v[np.asarray(orig_at)])
        return upper_solve_csc(u_factor, y)

    def solve_at(v: np.ndarray) -> np.ndarray:
        # Aᵀ z = v  with  PA = LU  =>  z = Pᵀ L⁻ᵀ U⁻ᵀ v.
        y = upper_transpose_solve_csc(u_factor, v)
        w = lower_transpose_unit_solve_csc(l_factor, y)
        out = np.empty_like(w)
        out[np.asarray(orig_at)] = w
        return out

    v = np.full(n, 1.0 / n)
    est = 0.0
    for _ in range(max_sweeps):
        z = solve_a(v)
        new_est = float(np.sum(np.abs(z)))
        xi = np.sign(z)
        xi[xi == 0] = 1.0
        w = solve_at(xi)
        k = int(np.argmax(np.abs(w)))
        if new_est <= est or np.abs(w[k]) <= float(np.abs(w) @ v):
            est = max(est, new_est)
            break
        est = new_est
        v = np.zeros(n)
        v[k] = 1.0
    return a_norm * est

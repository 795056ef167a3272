"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import lu
from repro.numeric.solver import SolverOptions
from repro.numeric.triangular import lower_unit_solve_csc, upper_solve_csc
from repro.ordering.transversal import zero_free_diagonal_permutation
from repro.serve.plan import SymbolicPlan, build_plan
from repro.serve.refactor import NumericFactorization, permuted_values
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import csc_from_dense
from repro.sparse.generators import random_sparse
from repro.sparse.ops import permute


def weak_diagonal(a: CSCMatrix, seed: int = 0, factor: float = 1e-3) -> CSCMatrix:
    """Shrink diagonal values so partial pivoting must actually swap rows."""
    rng = np.random.default_rng(seed)
    a = a.copy()
    for j in range(a.n_cols):
        lo, hi = int(a.indptr[j]), int(a.indptr[j + 1])
        for p in range(lo, hi):
            if a.indices[p] == j:
                a.data[p] *= factor * (0.1 + rng.random())
    return a


def random_pivot_matrix(n: int, seed: int, density: float = 0.12) -> CSCMatrix:
    """Random square matrix with a zero-free but weak diagonal."""
    return weak_diagonal(random_sparse(n, density=density, seed=seed), seed)


def paper_example_matrix() -> CSCMatrix:
    """A 7x7 matrix in the spirit of the paper's Figure 1 example.

    Zero-free diagonal, unsymmetric, with enough structure that its LU
    eforest is a genuine forest (more than one tree) and postordering is
    non-trivial.
    """
    dense = np.array(
        [
            # 0    1    2    3    4    5    6
            [4.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],  # 0
            [0.0, 5.0, 0.0, 0.0, 1.0, 0.0, 0.0],  # 1
            [1.0, 0.0, 6.0, 0.0, 0.0, 0.0, 1.0],  # 2
            [0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 1.0],  # 3
            [0.0, 1.0, 0.0, 0.0, 5.0, 0.0, 0.0],  # 4
            [0.0, 0.0, 1.0, 0.0, 0.0, 6.0, 0.0],  # 5
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 7.0],  # 6
        ]
    )
    return csc_from_dense(dense)


@pytest.fixture
def fig1_matrix() -> CSCMatrix:
    return paper_example_matrix()


@pytest.fixture(params=[3, 7, 11])
def small_random_matrix(request) -> CSCMatrix:
    a = random_sparse(30, density=0.12, seed=request.param)
    return permute(a, row_perm=zero_free_diagonal_permutation(a))


def solve_pipeline(a: CSCMatrix, **opt_kwargs) -> NumericFactorization:
    """Run the full pipeline (``lu``); returns the factorization."""
    return lu(a, **opt_kwargs).solver


def analyzed(a: CSCMatrix, **opt_kwargs) -> tuple[SymbolicPlan, CSCMatrix]:
    """``(plan, a_work)``: the symbolic plan of ``a`` and the matrix the
    engines factor under it (``a`` equilibrated when the options ask for
    it, then permuted)."""
    plan = build_plan(a, SolverOptions(**opt_kwargs))
    return plan, permuted_values(plan, a)[0]


def scalar_solve(fac: NumericFactorization, b: np.ndarray) -> np.ndarray:
    """The scalar oracle of ``fac.solve(b)``: the CSC substitutions of
    ``repro.numeric.triangular`` over the lazily assembled L and U,
    through the same permutations and equilibration. Column-independent,
    so a multi-RHS solve is bitwise a stack of single-RHS ones."""
    plan, res, equil = fac.plan, fac.result, fac.equil
    b = np.asarray(b, dtype=np.float64)
    if equil is not None:
        b = equil.scale_rhs(b)
    y = lower_unit_solve_csc(res.l_factor, b[plan.row_perm_inv][res.orig_at])
    x = upper_solve_csc(res.u_factor, y)[plan.col_perm]
    return equil.unscale_solution(x) if equil is not None else x

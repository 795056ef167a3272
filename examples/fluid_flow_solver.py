"""Fluid-flow workload (the paper's lnsp3937/lns3937 domain).

Linearized Navier-Stokes systems couple velocities and pressure with a
strongly unsymmetric structure — the case where the unsymmetric LU eforest
machinery matters most (a column elimination tree of AᵀA would badly
overestimate the structure). This example compares the two analyses:

  * the LU-eforest pipeline (this paper), and
  * the SuperLU-style column-etree view (AᵀA Cholesky bound),

and then solves the system, verifying against SciPy.

Run:  python examples/fluid_flow_solver.py
"""

import numpy as np

from repro import minimum_degree_ata, zero_free_diagonal_permutation
from repro.api import lu
from repro.sparse.convert import csc_to_scipy
from repro.sparse.generators import fluid_flow_matrix
from repro.sparse.ops import permute
from repro.symbolic.static_fill import ata_cholesky_bound, static_symbolic_factorization


def main() -> None:
    a = fluid_flow_matrix(18, 18, coupling=0.6, keep_offdiag=0.65, seed=11)
    print(f"Navier-Stokes-like system: n={a.n_cols}, nnz={a.nnz}")

    ordered = permute(a, row_perm=zero_free_diagonal_permutation(a))
    q = minimum_degree_ata(ordered)
    ordered = permute(ordered, row_perm=q, col_perm=q)

    fill = static_symbolic_factorization(ordered)
    bound = ata_cholesky_bound(ordered)
    print(
        f"static symbolic fill: {fill.nnz} entries "
        f"({fill.fill_ratio:.1f}x of A)"
    )
    print(
        f"AtA-Cholesky (column-etree) bound: {bound.nnz} entries -> the "
        f"column etree overestimates by {bound.nnz / fill.nnz:.2f}x, which is "
        "why the paper postorders the LU eforest instead (§3)"
    )

    fact = lu(a)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(a.n_cols)
    x = fact.solve(b)
    print(f"residual: {fact.solver.residual_norm(x, b):.2e}")

    import scipy.sparse.linalg as spla

    x_ref = spla.spsolve(csc_to_scipy(a), b)
    print(f"max deviation from scipy.spsolve: {np.max(np.abs(x - x_ref)):.2e}")


if __name__ == "__main__":
    main()

"""Quickstart: solve a sparse unsymmetric system with the paper's pipeline.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import paper_matrix
from repro.api import lu


def main() -> None:
    # A synthetic analog of the paper's orsreg1 reservoir matrix (Table 1);
    # scale=0.5 shrinks the underlying 21x21x5 grid for a quick demo.
    a = paper_matrix("orsreg1", scale=0.5)
    print(f"matrix: {a.n_rows} x {a.n_cols}, nnz = {a.nnz}")

    # lu() runs the whole pipeline. Its plan holds steps (1)-(2) of the
    # paper: maximum transversal, fill-reducing ordering on AtA, static
    # symbolic factorization, eforest postordering and L/U supernode
    # partitioning (the Theorem-4 task graph is built when read); the
    # numeric factorization is step (3), supernodal LU with partial
    # pivoting.
    fact = lu(a)
    st = fact.stats
    print(f"static fill |Abar|/|A|     = {st.fill_ratio:.2f}")
    print(f"supernodes (raw -> amalg)  = {st.n_supernodes_raw} -> {st.n_supernodes}")
    print(f"BTF diagonal blocks        = {st.n_btf_blocks}")
    print(f"task graph                 = {st.n_tasks} tasks, {st.n_edges} edges")

    # solve() = step (4): the two triangular systems.
    b = np.ones(a.n_cols)
    x = fact.solve(b)
    print(f"residual ||Ax-b||/||b||    = {fact.solver.residual_norm(x, b):.2e}")


if __name__ == "__main__":
    main()

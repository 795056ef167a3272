"""Baseline comparison: scalar Gilbert-Peierls LU vs the supernodal engine.

The paper's premise is that supernodal/submatrix organization (dense BLAS-3
blocks) beats column-at-a-time scalar factorization. This benchmark times
both implementations of this repository on the same matrices and reports the
factor nonzeros and wall-clock ratio. (In pure Python the BLAS-3 advantage
is visible but muted; the *shape* — supernodal no slower, identical
solutions — is the claim checked.)
"""

import numpy as np

from repro.numeric.factor import LUFactorization
from repro.numeric.scalar_lu import scalar_lu
from repro.serve import NumericFactorization, build_plan
from repro.serve.refactor import permuted_values
from repro.sparse.generators import paper_matrix
from repro.util.tables import format_table
from repro.util.timer import Timer


def run_comparison(scale: float):
    rows = []
    for name in ("orsreg1", "saylr4", "sherman5"):
        a = paper_matrix(name, scale=scale * 0.6)  # scalar path is slower
        plan = build_plan(a)
        with Timer() as t_super:
            a_work, equil = permuted_values(plan, a)
            eng = LUFactorization(a_work, plan.bp)
            eng.factor_sequential()
            res_super = eng.extract()
        with Timer() as t_scalar:
            res_scalar = scalar_lu(a)
        b = np.ones(a.n_cols)
        x_super = NumericFactorization(plan, a, a_work, res_super, equil).solve(b)
        x_scalar = res_scalar.solve(b)
        agree = bool(np.allclose(x_super, x_scalar, rtol=1e-7, atol=1e-9))
        rows.append(
            (
                name,
                a.n_cols,
                t_super.elapsed,
                t_scalar.elapsed,
                res_super.l_factor.nnz + res_super.u_factor.nnz,
                res_scalar.nnz_factors(),
                agree,
            )
        )
    return rows


def test_scalar_vs_supernodal(benchmark, bench_config, emit):
    rows = benchmark.pedantic(
        run_comparison, args=(bench_config.scale,), rounds=1, iterations=1
    )
    emit(
        "scalar_vs_supernodal",
        format_table(
            ["Matrix", "n", "t supernodal", "t scalar", "nnz(LU) super", "nnz(LU) scalar", "same x"],
            rows,
            title="Baseline: supernodal engine vs scalar Gilbert-Peierls LU",
            floatfmt=".3f",
        ),
    )
    assert all(r[-1] for r in rows), "solutions disagree"

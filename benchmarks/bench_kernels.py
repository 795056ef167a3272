"""Micro-benchmarks of the computational kernels.

These are classic pytest-benchmark timings (multiple rounds) of the pieces
the pipeline spends its time in: the George-Ng symbolic factorization, the
minimum-degree ordering, the panel LU, and the full numeric factorization.
A final (untimed) pass instruments the factorization with a metrics
registry and emits the kernel call/FLOP counters and block-width
histograms as a ``repro.bench`` JSON artifact.
"""

import numpy as np

from repro.numeric.factor import LUFactorization
from repro.numeric.kernels import lu_panel_inplace
from repro.api import lu
from repro.obs.metrics import MetricsRegistry
from repro.serve import build_plan
from repro.serve.refactor import permuted_values
from repro.util.tables import format_table
from repro.ordering.mindeg import minimum_degree_ata
from repro.ordering.transversal import zero_free_diagonal_permutation
from repro.sparse.generators import paper_matrix
from repro.sparse.ops import permute
from repro.symbolic.static_fill import static_symbolic_factorization
from repro.symbolic.postorder import postorder_pipeline


def _analyzed(name="orsreg1", scale=0.2):
    """The plan of ``name`` and the matrix it orders, permuted."""
    a = paper_matrix(name, scale=scale)
    plan = build_plan(a)
    return plan, permuted_values(plan, a)[0]


def _prepared(name="orsreg1", scale=0.2):
    a = paper_matrix(name, scale=scale)
    a = permute(a, row_perm=zero_free_diagonal_permutation(a))
    q = minimum_degree_ata(a)
    return permute(a, row_perm=q, col_perm=q)


def test_bench_static_symbolic_factorization(benchmark):
    a = _prepared()
    fill = benchmark(static_symbolic_factorization, a)
    assert fill.nnz >= a.nnz


def test_bench_minimum_degree(benchmark):
    a = paper_matrix("orsreg1", scale=0.2)
    perm = benchmark(minimum_degree_ata, a)
    assert perm.size == a.n_cols


def test_bench_postorder(benchmark):
    fill = static_symbolic_factorization(_prepared())
    po = benchmark(postorder_pipeline, fill)
    assert po.fill.nnz == fill.nnz


def test_bench_panel_lu(benchmark):
    rng = np.random.default_rng(0)
    base = rng.standard_normal((256, 64))

    def run():
        m = base.copy()
        return lu_panel_inplace(m, 64)

    order, linv = benchmark(run)
    assert order.size == 256 and linv.shape == (64, 64)


def test_bench_numeric_factorization(benchmark):
    plan, a_work = _analyzed()

    def run():
        eng = LUFactorization(a_work, plan.bp)
        eng.factor_sequential()
        return eng

    eng = benchmark.pedantic(run, rounds=3, iterations=1)
    assert eng.n_tasks == plan.graph.n_tasks


def test_kernel_histograms(emit):
    """Kernel-mix profile of one factorization (counts, FLOPs, widths)."""
    plan, a_work = _analyzed()
    metrics = MetricsRegistry()
    eng = LUFactorization(a_work, plan.bp, metrics=metrics)
    eng.factor_sequential()
    data = metrics.as_dict()
    rows = [
        (c["name"], c["value"], c["unit"])
        for c in data["counters"]
        if c["name"].startswith("kernel.")
    ]
    hist_rows = [
        (
            h["name"],
            h["count"],
            round(h["total"] / h["count"], 2) if h["count"] else 0.0,
            h["min"],
            h["max"],
        )
        for h in data["histograms"]
    ]
    text = format_table(["counter", "value", "unit"], rows, title="kernel mix")
    text += "\n\n" + format_table(
        ["histogram", "n", "mean", "min", "max"],
        hist_rows,
        title="block shape distributions",
    )
    emit("bench_kernel_histograms", text, data=data)
    assert any(name == "kernel.gemm.flops" for name, _, _ in rows)


def test_bench_full_pipeline(benchmark):
    a = paper_matrix("saylr4", scale=0.15)

    def run():
        return lu(a).solver

    fac = benchmark.pedantic(run, rounds=2, iterations=1)
    b = np.ones(a.n_cols)
    assert fac.residual_norm(fac.solve(b), b) < 1e-8

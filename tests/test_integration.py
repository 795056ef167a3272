"""End-to-end integration tests across the whole pipeline."""

import numpy as np
import pytest

from repro.sparse.generators import PAPER_MATRICES, paper_matrix
from tests.conftest import solve_pipeline

SCALE = 0.1


@pytest.mark.parametrize("name", sorted(PAPER_MATRICES))
def test_full_pipeline_on_every_analog(name):
    a = paper_matrix(name, scale=SCALE)
    fact = solve_pipeline(a)
    b = np.cos(np.arange(a.n_cols))
    x = fact.solve(b)
    assert fact.residual_norm(x, b) < 1e-8, name
    st = fact.plan.stats()
    assert st.fill_ratio >= 1.0
    assert st.n_supernodes <= st.n_supernodes_raw


@pytest.mark.parametrize("name", ["sherman3", "lns3937"])
def test_both_graphs_same_solution(name):
    a = paper_matrix(name, scale=SCALE)
    b = np.ones(a.n_cols)
    x_new = solve_pipeline(a, task_graph="eforest").solve(b)
    x_old = solve_pipeline(a, task_graph="sstar").solve(b)
    assert np.allclose(x_new, x_old)


def test_postorder_does_not_change_solution():
    a = paper_matrix("orsreg1", scale=SCALE)
    b = np.arange(1.0, a.n_cols + 1.0)
    x_po = solve_pipeline(a, postorder=True).solve(b)
    x_no = solve_pipeline(a, postorder=False).solve(b)
    assert np.allclose(x_po, x_no, rtol=1e-8, atol=1e-10)


def test_multiple_solves_reuse_factorization():
    a = paper_matrix("saylr4", scale=SCALE)
    fact = solve_pipeline(a)
    for seed in range(3):
        b = np.random.default_rng(seed).standard_normal(a.n_cols)
        x = fact.solve(b)
        assert fact.residual_norm(x, b) < 1e-8


def test_file_roundtrip_then_solve(tmp_path):
    from repro.sparse.io import read_matrix_market, write_matrix_market

    a = paper_matrix("orsreg1", scale=SCALE)
    path = tmp_path / "m.mtx"
    write_matrix_market(a, str(path))
    a2 = read_matrix_market(str(path))
    fact = solve_pipeline(a2)
    b = np.ones(a2.n_cols)
    assert fact.residual_norm(fact.solve(b), b) < 1e-8

"""Property-based tests (hypothesis) on the core invariants.

Random sparse matrices drive the pipeline end to end: the George-Ng
containment, the eforest theorems, Theorem 3 invariance, task-graph
acyclicity/refinement, and numerical correctness must hold for *every*
generated instance, not just the fixture zoo.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ordering.etree import is_forest_permutation_topological
from repro.ordering.transversal import (
    maximum_transversal,
    zero_free_diagonal_permutation,
)
from repro.sparse.coo import COOBuilder
from repro.sparse.ops import permute
from repro.sparse.pattern import pattern_contains, pattern_equal
from repro.symbolic.characterization import CompactFactorStorage
from repro.symbolic.eforest import extended_eforest
from repro.symbolic.postorder import is_block_upper_triangular, postorder_pipeline
from repro.symbolic.static_fill import (
    simulate_elimination_fill,
    static_symbolic_factorization,
)
from repro.symbolic.supernodes import block_pattern, supernode_partition
from repro.taskgraph.eforest_graph import build_eforest_graph
from repro.taskgraph.sstar import build_sstar_graph


@st.composite
def sparse_matrices(draw, max_n=18):
    """Random square matrices with a zero-free diagonal and weak-ish values."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    density = draw(st.floats(min_value=0.02, max_value=0.35))
    rng = np.random.default_rng(seed)
    builder = COOBuilder(n, n)
    n_off = int(density * n * n)
    if n_off:
        builder.extend(
            rng.integers(0, n, n_off),
            rng.integers(0, n, n_off),
            rng.standard_normal(n_off),
        )
    ids = np.arange(n)
    builder.extend(ids, ids, 0.05 + rng.random(n))  # weak but nonzero diag
    return builder.to_csc()


@given(sparse_matrices())
@settings(max_examples=40, deadline=None)
def test_static_fill_contains_random_pivot_sequence(a):
    fill = static_symbolic_factorization(a)
    rng = np.random.default_rng(a.nnz)
    exact = simulate_elimination_fill(a, lambda k, cand: cand[rng.integers(len(cand))])
    assert pattern_contains(fill.pattern, exact)


@given(sparse_matrices())
@settings(max_examples=30, deadline=None)
def test_theorems_1_and_2_hold(a):
    from repro.symbolic.characterization import verify_theorem1, verify_theorem2

    fill = static_symbolic_factorization(a)
    forest = extended_eforest(fill)
    assert verify_theorem1(fill, forest)
    assert verify_theorem2(fill, forest)


@given(sparse_matrices())
@settings(max_examples=30, deadline=None)
def test_postorder_invariance_and_btf(a):
    fill = static_symbolic_factorization(a)
    po = postorder_pipeline(fill)
    assert is_forest_permutation_topological(fill.parent, po.perm)
    a2 = permute(a, row_perm=po.perm, col_perm=po.perm)
    assert pattern_equal(static_symbolic_factorization(a2).pattern, po.fill.pattern)
    assert is_block_upper_triangular(po.fill.pattern, po.blocks)


@given(sparse_matrices())
@settings(max_examples=30, deadline=None)
def test_compact_storage_roundtrip(a):
    fill = static_symbolic_factorization(a)
    forest = extended_eforest(fill)
    storage = CompactFactorStorage.encode(fill, forest)
    assert pattern_equal(storage.decode_pattern(), fill.pattern)


@given(sparse_matrices())
@settings(max_examples=30, deadline=None)
def test_task_graphs_acyclic_and_refined(a):
    fill = static_symbolic_factorization(a)
    bp = block_pattern(fill, supernode_partition(fill))
    g_new = build_eforest_graph(bp)
    g_old = build_sstar_graph(bp)
    g_new.validate()
    g_old.validate()
    assert g_new.n_tasks == g_old.n_tasks
    assert g_new.is_refinement_of(g_old)


@given(sparse_matrices(max_n=14))
@settings(max_examples=25, deadline=None)
def test_factorization_solves(a):
    from tests.conftest import solve_pipeline
    from repro.util.errors import SingularMatrixError

    try:
        fact = solve_pipeline(a)
    except SingularMatrixError:
        return  # numerically singular random instance: a legitimate outcome
    b = np.ones(a.n_cols)
    x = fact.solve(b)
    assert fact.residual_norm(x, b) < 1e-6


@st.composite
def structurally_nonsingular(draw, max_n=15):
    """Random pattern overlaid on a random permutation (guaranteed
    transversal), without a stored diagonal."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    p = rng.permutation(n)
    builder = COOBuilder(n, n)
    builder.extend(p, np.arange(n), 1.0 + rng.random(n))
    n_off = int(0.15 * n * n)
    if n_off:
        builder.extend(
            rng.integers(0, n, n_off),
            rng.integers(0, n, n_off),
            rng.standard_normal(n_off),
        )
    return builder.to_csc()


@given(structurally_nonsingular())
@settings(max_examples=40, deadline=None)
def test_transversal_is_perfect_on_nonsingular(a):
    match = maximum_transversal(a)
    assert (match >= 0).all()
    perm = zero_free_diagonal_permutation(a)
    permuted = permute(a, row_perm=perm)
    for j in range(a.n_cols):
        assert permuted.has_entry(j, j)

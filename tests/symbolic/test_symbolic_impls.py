"""Property tests pinning the fast symbolic kernels to the reference.

The fast implementations (array-form row merge and the eforest
parents it emits, iterative postorder) must be bit-exact with the per-element
reference implementations, which the tests call directly: identical
``StaticFill`` patterns, identical eforest parent arrays, identical
postorder permutations — on random, dense, tridiagonal, and
block-triangular patterns and small instances of the large-n families,
and the static fill also on the seven paper analogs and full-size
instances of those families. Also covers the one implementation name
the ``impl=`` arguments accept, which never selects the reference.
"""

import numpy as np
import pytest

from repro.ordering.etree import postorder_forest, relabel_forest
from repro.ordering.transversal import zero_free_diagonal_permutation
from repro.sparse.csc import CSCMatrix, INDEX_DTYPE
from repro.sparse.generators import (
    PAPER_MATRICES,
    arrow_pattern,
    banded_pattern,
    grid_pattern,
    paper_matrix,
    random_sparse,
)
from repro.sparse.ops import permute
from repro.sparse.pattern import pattern_equal
from repro.symbolic.dispatch import resolve_impl
from repro.symbolic.eforest import lu_elimination_forest_reference
from repro.symbolic.postorder import block_upper_triangular_blocks, postorder_pipeline
from repro.symbolic.static_fill import (
    static_symbolic_factorization,
    static_symbolic_factorization_reference,
)
from repro.util.errors import DispatchError


def pattern_from_dense_bool(mask):
    mask = np.asarray(mask, dtype=bool)
    n = mask.shape[0]
    indptr = np.zeros(n + 1, dtype=np.int64)
    chunks = []
    for j in range(n):
        rows = np.nonzero(mask[:, j])[0].astype(INDEX_DTYPE)
        chunks.append(rows)
        indptr[j + 1] = indptr[j] + rows.size
    indices = (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=INDEX_DTYPE)
    )
    return CSCMatrix(n, n, indptr, indices, None, check=False)


def tridiagonal_pattern(n):
    mask = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    mask[idx, idx] = True
    mask[idx[:-1], idx[1:]] = True
    mask[idx[1:], idx[:-1]] = True
    return pattern_from_dense_bool(mask)


def block_triangular_pattern(block_sizes, seed=0):
    """Dense diagonal blocks plus random entries above the block diagonal."""
    rng = np.random.default_rng(seed)
    n = sum(block_sizes)
    mask = np.zeros((n, n), dtype=bool)
    start = 0
    for size in block_sizes:
        mask[start : start + size, start : start + size] = True
        if start + size < n:
            above = rng.random((size, n - start - size)) < 0.3
            mask[start : start + size, start + size :] |= above
        start += size
    return pattern_from_dense_bool(mask)


def prepared_random(n, seed, density=0.2):
    a = random_sparse(n, density=density, seed=seed)
    return permute(a, row_perm=zero_free_diagonal_permutation(a))


def prepared_pattern(a):
    """Pattern with a zero-free diagonal, as the pipeline feeds the kernel."""
    return permute(a.pattern_only(), row_perm=zero_free_diagonal_permutation(a))


def assert_bitwise_same_fill(work):
    ref = static_symbolic_factorization_reference(work)
    fast = static_symbolic_factorization(work)
    assert np.array_equal(ref.pattern.indptr, fast.pattern.indptr)
    assert np.array_equal(ref.pattern.indices, fast.pattern.indices)
    assert ref.pattern.indices.dtype == fast.pattern.indices.dtype
    assert ref.nnz_original == fast.nnz_original


def case_matrices():
    cases = [
        ("dense", pattern_from_dense_bool(np.ones((7, 7), dtype=bool))),
        ("tridiagonal", tridiagonal_pattern(25)),
        ("block_triangular", block_triangular_pattern([4, 3, 6, 2])),
        ("identity", pattern_from_dense_bool(np.eye(9, dtype=bool))),
        ("one_by_one", pattern_from_dense_bool(np.ones((1, 1), dtype=bool))),
        ("banded", banded_pattern(60, band=3, keep=0.6, seed=1)),
        ("arrow", arrow_pattern(40)),
        ("grid", grid_pattern(6, 4, tiles=2)),
    ]
    for seed in range(8):
        cases.append((f"random_{seed}", prepared_random(14 + seed, seed)))
    for seed in range(3):
        cases.append(
            (f"random_sparse_{seed}", prepared_random(30, 100 + seed, 0.08))
        )
    return cases


CASES = case_matrices()
CASE_IDS = [name for name, _ in CASES]
CASE_MATRICES = [a for _, a in CASES]


class TestImplementationEquality:
    @pytest.mark.parametrize("a", CASE_MATRICES, ids=CASE_IDS)
    def test_static_fill_patterns_identical(self, a):
        ref = static_symbolic_factorization_reference(a)
        fast = static_symbolic_factorization(a, impl="fast")
        assert pattern_equal(ref.pattern, fast.pattern)
        assert ref.nnz_original == fast.nnz_original

    @pytest.mark.parametrize("name", sorted(PAPER_MATRICES))
    def test_fill_on_analogs(self, name):
        # Bit for bit, as the pipeline's transversal hands the kernel
        # each analog.
        a = paper_matrix(name, scale=0.1)
        assert_bitwise_same_fill(prepared_pattern(a))

    @pytest.mark.parametrize(
        "pattern",
        [
            banded_pattern(4000, band=4, keep=0.6, seed=1),
            arrow_pattern(1500, band=1),
            grid_pattern(120, 8, tiles=4),
            prepared_pattern(random_sparse(300, density=0.02, seed=7)),
        ],
        ids=["banded", "arrow", "grid", "random"],
    )
    def test_fill_on_families(self, pattern):
        # The large-n families at thousands of columns, beyond the small
        # instances of the sweep above.
        assert_bitwise_same_fill(pattern)

    @pytest.mark.parametrize("a", CASE_MATRICES, ids=CASE_IDS)
    def test_eforest_parents_identical(self, a):
        fill = static_symbolic_factorization_reference(a)
        ref = lu_elimination_forest_reference(fill)
        assert np.array_equal(fill.parent, ref)
        assert np.array_equal(static_symbolic_factorization(a).parent, ref)

    @pytest.mark.parametrize("a", CASE_MATRICES, ids=CASE_IDS)
    def test_postorder_permutations_identical(self, a):
        # The production pipeline against the reference kernels composed
        # by hand: reference fill -> reference parents -> postorder.
        fill_ref = static_symbolic_factorization_reference(a)
        parent_ref = lu_elimination_forest_reference(fill_ref)
        perm = postorder_forest(parent_ref)
        parent_after = relabel_forest(parent_ref, perm)
        po = postorder_pipeline(static_symbolic_factorization(a, impl="fast"))
        assert np.array_equal(po.perm, perm)
        assert np.array_equal(po.fill.parent, parent_after)
        assert pattern_equal(
            po.fill.pattern, permute(fill_ref.pattern, row_perm=perm, col_perm=perm)
        )
        assert po.blocks == block_upper_triangular_blocks(parent_after)


class TestDispatch:
    def test_default_is_fast(self):
        assert resolve_impl() == "fast"
        assert resolve_impl("fast") == "fast"

    def test_reference_is_not_selectable(self):
        # The reference kernels are oracles, called directly; no name
        # routes a request to them.
        with pytest.raises(DispatchError):
            resolve_impl("reference")
        a = prepared_random(6, seed=0)
        with pytest.raises(DispatchError):
            static_symbolic_factorization(a, impl="reference")
        with pytest.raises(DispatchError):
            postorder_pipeline(static_symbolic_factorization(a), impl="reference")

    def test_unknown_argument_raises(self):
        with pytest.raises(ValueError, match="impl argument"):
            resolve_impl("turbo")

"""George-Ng static symbolic factorization tests.

The central guarantee: ``Ā`` contains the exact fill of *every* partial-
pivoting row sequence. On tiny matrices we enumerate ALL pivot sequences
exhaustively; on larger ones we sample random sequences.
"""


import numpy as np
import pytest

from repro.sparse.convert import csc_from_dense
from repro.sparse.generators import random_sparse
from repro.sparse.ops import permute
from repro.sparse.pattern import pattern_contains, pattern_equal
from repro.ordering.transversal import zero_free_diagonal_permutation
from repro.symbolic.static_fill import (
    ata_cholesky_bound,
    simulate_elimination_fill,
    static_symbolic_factorization,
    static_symbolic_factorization_fast,
    static_symbolic_factorization_reference,
)
from repro.util.errors import PatternError, ShapeError


def prepared(n, seed, density=0.2):
    a = random_sparse(n, density=density, seed=seed)
    return permute(a, row_perm=zero_free_diagonal_permutation(a))


def all_pivot_sequences(a, fill):
    """Exhaustively check containment over every pivot choice (tiny n)."""
    n = a.n_cols
    # Depth-first over the tree of pivot choices on the *pattern*.
    from repro.sparse.convert import csc_to_csr

    csr = csc_to_csr(a.pattern_only())
    init_rows = [frozenset(int(c) for c in csr.row_cols(i)) for i in range(n)]

    fill_cols = {
        j: set(int(i) for i in fill.pattern.col_rows(j)) for j in range(n)
    }

    def contained(final_rows):
        for i, cols in enumerate(final_rows):
            for j in cols:
                if i not in fill_cols[j]:
                    return False
        return True

    count = 0

    def recurse(rows, final_rows, k):
        nonlocal count
        if k == n:
            count += 1
            assert contained(final_rows), f"sequence not contained at leaf {count}"
            return
        candidates = [i for i in range(k, n) if k in rows[i]]
        assert candidates, "structurally singular branch"
        for choice in candidates:
            r = list(rows)
            r[k], r[choice] = r[choice], r[k]
            f = [set(s) for s in final_rows]
            f[k] |= r[k]
            tail = {c for c in r[k] if c > k}
            for i in range(k + 1, n):
                if k in r[i]:
                    f[i].add(k)
                    r[i] = frozenset((r[i] | tail) - {k})
            recurse(r, f, k + 1)

    recurse(init_rows, [set() for _ in range(n)], 0)
    return count


class TestExhaustiveContainment:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_sequences_tiny(self, seed):
        a = prepared(5, seed, density=0.25)
        fill = static_symbolic_factorization(a)
        n_sequences = all_pivot_sequences(a, fill)
        assert n_sequences >= 1

    def test_all_sequences_dense_corner(self):
        dense = np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [1.0, 1.0, 1.0, 0.0],
                [0.0, 1.0, 1.0, 1.0],
                [1.0, 0.0, 1.0, 1.0],
            ]
        )
        a = csc_from_dense(dense)
        fill = static_symbolic_factorization(a)
        assert all_pivot_sequences(a, fill) > 1


class TestSampledContainment:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_pivot_sequences(self, seed):
        a = prepared(25, seed, density=0.12)
        fill = static_symbolic_factorization(a)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            exact = simulate_elimination_fill(
                a, lambda k, cand: cand[rng.integers(len(cand))]
            )
            assert pattern_contains(fill.pattern, exact)

    def test_no_pivoting_sequence(self):
        a = prepared(20, 99, density=0.15)
        fill = static_symbolic_factorization(a)
        exact = simulate_elimination_fill(a)  # diagonal pivots
        assert pattern_contains(fill.pattern, exact)


class TestStructure:
    def test_contains_original(self):
        a = prepared(20, 1)
        fill = static_symbolic_factorization(a)
        assert pattern_contains(fill.pattern, a.pattern_only())

    def test_diagonal_always_stored(self):
        a = prepared(20, 2)
        fill = static_symbolic_factorization(a)
        for j in range(20):
            assert fill.pattern.has_entry(j, j)

    def test_within_ata_cholesky_bound(self):
        for seed in range(5):
            a = prepared(15, seed)
            fill = static_symbolic_factorization(a)
            bound = ata_cholesky_bound(a)
            assert pattern_contains(bound, fill.pattern)

    def test_upper_triangular_input(self):
        dense = np.triu(np.ones((5, 5)))
        fill = static_symbolic_factorization(csc_from_dense(dense))
        # No fill below the diagonal is possible.
        assert pattern_equal(fill.pattern, csc_from_dense(dense).pattern_only())

    def test_fill_ratio_at_least_one(self):
        a = prepared(20, 3)
        fill = static_symbolic_factorization(a)
        assert fill.fill_ratio >= 1.0

    def test_u_rows_l_cols_partition_pattern(self):
        a = prepared(15, 4)
        fill = static_symbolic_factorization(a)
        total = sum(r.size for r in fill.u_rows()) + sum(
            c.size - 1 for c in fill.l_cols()
        )
        assert total == fill.nnz

    def test_l_u_patterns(self):
        a = prepared(15, 5)
        fill = static_symbolic_factorization(a)
        l_pat, u_pat = fill.l_pattern(), fill.u_pattern()
        # Diagonal appears in both, so union minus one diagonal = pattern.
        assert l_pat.nnz + u_pat.nnz - fill.n == fill.nnz


#: The fast kernel and its set-based oracle, called directly.
IMPLS = {
    "reference": static_symbolic_factorization_reference,
    "fast": static_symbolic_factorization_fast,
}
over_impls = pytest.mark.parametrize("factor", list(IMPLS.values()), ids=list(IMPLS))


class TestEdgeCases:
    @over_impls
    def test_one_by_one(self, factor):
        fill = factor(csc_from_dense(np.ones((1, 1))))
        assert fill.n == 1
        assert fill.nnz == 1
        assert fill.pattern.has_entry(0, 0)

    @over_impls
    def test_fully_dense(self, factor):
        n = 8
        dense = csc_from_dense(np.ones((n, n)))
        fill = factor(dense)
        # A dense matrix is already its own static fill.
        assert pattern_equal(fill.pattern, dense.pattern_only())
        assert fill.fill_ratio == 1.0

    @over_impls
    def test_diagonal_only(self, factor):
        n = 9
        diag = csc_from_dense(np.eye(n))
        fill = factor(diag)
        # No off-diagonal structure means no merges and no fill at all.
        assert pattern_equal(fill.pattern, diag.pattern_only())

    @over_impls
    def test_zero_diagonal_fixed_by_transversal(self, factor):
        # An antidiagonal permutation matrix plus some off-diagonal noise:
        # every diagonal entry is zero, so the raw matrix must be rejected,
        # while the maximum-transversal row permutation repairs it.
        n = 6
        dense = np.zeros((n, n))
        for j in range(n):
            dense[n - 1 - j, j] = 1.0
        dense[0, n - 1] = 1.0
        a = csc_from_dense(dense)
        with pytest.raises(PatternError, match="zero-free diagonal"):
            factor(a)
        fixed = permute(a, row_perm=zero_free_diagonal_permutation(a))
        fill = factor(fixed)
        for j in range(n):
            assert fill.pattern.has_entry(j, j)


class TestErrors:
    @over_impls
    def test_missing_diagonal_raises(self, factor):
        dense = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(PatternError):
            factor(csc_from_dense(dense))

    @over_impls
    def test_rectangular_raises(self, factor):
        with pytest.raises(ShapeError):
            factor(csc_from_dense(np.ones((2, 3))))

    def test_simulate_rejects_bad_pivot_choice(self):
        a = prepared(6, 6)
        with pytest.raises(PatternError):
            simulate_elimination_fill(a, lambda k, cand: -1)

    @over_impls
    def test_empty_matrix(self, factor):
        a = csc_from_dense(np.zeros((0, 0)))
        fill = factor(a)
        assert fill.nnz == 0

"""Postordering tests (paper §3 and Theorem 3)."""

import numpy as np
import pytest

from repro.sparse.generators import paper_matrix, random_sparse
from repro.sparse.ops import permute
from repro.sparse.pattern import pattern_equal
from repro.ordering.etree import is_forest_permutation_topological
from repro.ordering.transversal import zero_free_diagonal_permutation
from repro.symbolic.postorder import (
    block_upper_triangular_blocks,
    is_block_upper_triangular,
    paper_postorder_interchanges,
    postorder_pipeline,
)
from repro.symbolic.static_fill import static_symbolic_factorization
from repro.util.errors import PatternError


def prepared(n, seed, density=0.12):
    a = random_sparse(n, density=density, seed=seed)
    return permute(a, row_perm=zero_free_diagonal_permutation(a))


class TestTheorem3:
    @pytest.mark.parametrize("seed", range(8))
    def test_static_fill_invariant_under_postorder(self, seed):
        """Permuting A by the postorder and re-running the static symbolic
        factorization yields exactly the permuted pattern — Theorem 3."""
        a = prepared(30, seed)
        fill = static_symbolic_factorization(a)
        po = postorder_pipeline(fill)
        a2 = permute(a, row_perm=po.perm, col_perm=po.perm)
        fill2 = static_symbolic_factorization(a2)
        assert pattern_equal(fill2.pattern, po.fill.pattern)

    @pytest.mark.parametrize("seed", range(4))
    def test_interchange_postorder_also_invariant(self, seed):
        a = prepared(20, seed)
        fill = static_symbolic_factorization(a)
        po = postorder_pipeline(fill)
        perm = paper_postorder_interchanges(fill.parent)
        a2 = permute(a, row_perm=perm, col_perm=perm)
        fill2 = static_symbolic_factorization(a2)
        assert fill2.nnz == fill.nnz


class TestPostorderStructure:
    def test_perm_is_topological(self):
        a = prepared(30, 1)
        fill = static_symbolic_factorization(a)
        po = postorder_pipeline(fill)
        assert is_forest_permutation_topological(fill.parent, po.perm)

    def test_blocks_cover_matrix(self):
        a = prepared(30, 2)
        po = postorder_pipeline(static_symbolic_factorization(a))
        assert po.blocks[0][0] == 0
        assert po.blocks[-1][1] == 30
        for (s1, e1), (s2, e2) in zip(po.blocks, po.blocks[1:]):
            assert e1 == s2

    def test_block_upper_triangular(self):
        """§3: the postordered matrix decomposes block upper triangular with
        one diagonal block per eforest tree."""
        for seed in range(6):
            a = prepared(30, seed)
            po = postorder_pipeline(static_symbolic_factorization(a))
            assert is_block_upper_triangular(po.fill.pattern, po.blocks)

    def test_paper_analog_btf(self):
        a = paper_matrix("sherman3", scale=0.12)
        from repro.ordering.mindeg import minimum_degree_ata

        a = permute(a, row_perm=zero_free_diagonal_permutation(a))
        q = minimum_degree_ata(a)
        a = permute(a, row_perm=q, col_perm=q)
        po = postorder_pipeline(static_symbolic_factorization(a))
        assert is_block_upper_triangular(po.fill.pattern, po.blocks)
        assert len(po.blocks) >= 1

    def test_forest_shape_preserved(self):
        a = prepared(25, 3)
        fill = static_symbolic_factorization(a)
        po = postorder_pipeline(fill)
        # Same number of roots and same multiset of subtree depths.
        before, after = fill.parent, po.fill.parent
        assert (before == -1).sum() == (after == -1).sum()

        def depths(parent):
            out = []
            for v in range(parent.size):
                d = 0
                while parent[v] >= 0:
                    v, d = parent[v], d + 1
                out.append(d)
            return sorted(out)

        assert depths(before) == depths(after)

    def test_idempotent(self):
        a = prepared(25, 4)
        po = postorder_pipeline(static_symbolic_factorization(a))
        po2 = postorder_pipeline(po.fill)
        assert np.array_equal(po2.perm, np.arange(25))

    def test_blocks_validation_rejects_non_postordered(self):
        # A forest where a subtree is not contiguous: 0 -> 2 with node 1 a
        # separate root BELOW 2's range start.
        parent = np.array([2, -1, -1])
        # tree {0,2} occupies labels {0,2}: not contiguous.
        with pytest.raises(PatternError):
            block_upper_triangular_blocks(parent)


class TestInterchangeAlgorithm:
    @pytest.mark.parametrize("seed", range(5))
    def test_produces_topological_labeling(self, seed):
        a = prepared(20, seed)
        fill = static_symbolic_factorization(a)
        perm = paper_postorder_interchanges(fill.parent)
        assert is_forest_permutation_topological(fill.parent, perm)

    def test_subtrees_contiguous(self):
        a = prepared(20, 7)
        fill = static_symbolic_factorization(a)
        perm = paper_postorder_interchanges(fill.parent)
        from repro.ordering.etree import relabel_forest

        relabeled = relabel_forest(fill.parent, perm)
        blocks = block_upper_triangular_blocks(relabeled)  # raises if not
        assert blocks[-1][1] == 20

    def test_identity_on_postordered_forest(self):
        a = prepared(20, 8)
        po = postorder_pipeline(static_symbolic_factorization(a))
        perm = paper_postorder_interchanges(po.fill.parent)
        assert np.array_equal(perm, np.arange(20))

    def test_deep_chain_exceeds_recursion_limit(self):
        # Regression: the tridiagonal (chain-forest) case used to recurse
        # once per node and needed a sys.setrecursionlimit bump. The chain
        # must run iteratively, well past the default recursion limit, and
        # — being already postordered — come back as the identity.
        import sys

        n = sys.getrecursionlimit() + 500
        parent = np.arange(1, n + 1, dtype=np.int64)
        parent[-1] = -1
        perm = paper_postorder_interchanges(parent)
        assert np.array_equal(perm, np.arange(n))

    def test_deep_chain_with_scrambled_labels(self):
        # A chain whose labels interleave with a second root-only tree:
        # members of the chain are non-contiguous, so the normalization
        # actually moves labels at depth > the default recursion limit.
        import sys

        n = sys.getrecursionlimit() + 501  # odd, so the chain gets the top
        # Even nodes form a chain 0 -> 2 -> 4 -> ...; odd nodes are roots.
        parent = np.full(n, -1, dtype=np.int64)
        evens = np.arange(0, n - 2, 2)
        parent[evens] = evens + 2
        perm = paper_postorder_interchanges(parent)
        assert is_forest_permutation_topological(parent, perm)
        from repro.ordering.etree import relabel_forest

        block_upper_triangular_blocks(relabel_forest(parent, perm))

"""Tarjan SCC / classical block-triangular-form tests."""

import numpy as np
import pytest

from repro.ordering.btf import (
    block_triangular_permutation,
    strongly_connected_components,
)
from repro.ordering.transversal import zero_free_diagonal_permutation
from repro.sparse.convert import csc_from_dense, csc_to_scipy
from repro.sparse.generators import paper_matrix, random_sparse
from repro.sparse.ops import permute
from repro.symbolic.postorder import is_block_upper_triangular
from repro.util.errors import ShapeError


class TestSCC:
    @pytest.mark.parametrize("seed", range(8))
    def test_partition_matches_scipy(self, seed):
        import scipy.sparse as sp
        import scipy.sparse.csgraph as csg

        a = random_sparse(25, density=0.06, seed=seed)
        comp = strongly_connected_components(a)
        g = sp.csr_matrix(csc_to_scipy(a.pattern_only()).T)
        _, lab = csg.connected_components(g, directed=True, connection="strong")
        ours = {}
        refs = {}
        for v in range(25):
            ours.setdefault(int(comp[v]), set()).add(v)
            refs.setdefault(int(lab[v]), set()).add(v)
        assert sorted(map(sorted, ours.values())) == sorted(
            map(sorted, refs.values())
        )

    def test_diagonal_matrix_all_singletons(self):
        comp = strongly_connected_components(csc_from_dense(np.eye(5)))
        assert len(set(comp.tolist())) == 5

    def test_cycle_is_one_component(self):
        n = 4
        dense = np.eye(n)
        for j in range(n):
            dense[(j + 1) % n, j] = 1.0
        comp = strongly_connected_components(csc_from_dense(dense))
        assert len(set(comp.tolist())) == 1

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            strongly_connected_components(csc_from_dense(np.ones((2, 3))))


class TestBTFPermutation:
    @pytest.mark.parametrize("seed", range(8))
    def test_block_upper_triangular(self, seed):
        a = random_sparse(30, density=0.07, seed=seed)
        a = permute(a, row_perm=zero_free_diagonal_permutation(a))
        perm, blocks = block_triangular_permutation(a)
        b = permute(a, row_perm=perm, col_perm=perm)
        assert is_block_upper_triangular(b.pattern_only(), blocks)
        assert blocks[0][0] == 0 and blocks[-1][1] == 30

    def test_triangular_matrix_fully_decomposes(self):
        dense = np.triu(np.ones((6, 6)))
        perm, blocks = block_triangular_permutation(csc_from_dense(dense))
        assert len(blocks) == 6

    def test_finest_vs_eforest_blocks(self):
        """The classical SCC decomposition of A is at least as fine as the
        eforest tree decomposition of the filled Ā (fill only couples)."""
        from tests.conftest import analyzed

        for name in ("sherman3", "goodwin"):
            a = paper_matrix(name, scale=0.1)
            a0 = permute(a, row_perm=zero_free_diagonal_permutation(a))
            _, classical = block_triangular_permutation(a0)
            plan, _ = analyzed(a)
            assert len(classical) >= plan.stats().n_btf_blocks, name

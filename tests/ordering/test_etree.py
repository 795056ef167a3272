"""Column elimination tree and forest-utility tests."""

import numpy as np
import pytest

from repro.ordering.etree import (
    column_etree,
    forest_children,
    forest_children_arrays,
    forest_roots,
    is_forest_permutation_topological,
    postorder_forest,
    relabel_forest,
)
from repro.sparse.convert import csc_from_dense
from repro.sparse.generators import random_sparse
from repro.util.errors import ShapeError


def brute_force_column_etree(a):
    """Etree of AᵀA via symbolic Cholesky on the dense pattern."""
    d = (a.to_dense() != 0).astype(float)
    b = (d.T @ d) != 0
    n = b.shape[0]
    # Dense symbolic Cholesky fill.
    fill = b.copy()
    for k in range(n):
        rows = [i for i in range(k + 1, n) if fill[i, k]]
        for i in rows:
            for j in rows:
                fill[i, j] = True
    parent = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        below = [i for i in range(j + 1, n) if fill[i, j]]
        if below:
            parent[j] = below[0]
    return parent


class TestColumnEtree:
    def test_matches_brute_force(self):
        for seed in range(8):
            a = random_sparse(15, density=0.15, seed=seed)
            assert np.array_equal(column_etree(a), brute_force_column_etree(a))

    def test_diagonal_matrix_all_roots(self):
        a = csc_from_dense(np.eye(5))
        assert (column_etree(a) == -1).all()

    def test_dense_matrix_is_path(self):
        a = csc_from_dense(np.ones((4, 4)))
        assert column_etree(a).tolist() == [1, 2, 3, -1]

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            column_etree(csc_from_dense(np.ones((2, 3))))

    def test_uncompressed_walk_matches_compressed(self):
        for seed in range(8):
            a = random_sparse(18, density=0.2, seed=seed)
            assert np.array_equal(
                column_etree(a, compress=True), column_etree(a, compress=False)
            )

    def test_uncompressed_on_arrow_pattern(self):
        # The chain-etree worst case of the uncompressed walk must still
        # produce the same tree.
        from repro.sparse.generators import arrow_pattern

        a = arrow_pattern(40)
        assert np.array_equal(
            column_etree(a, compress=True), column_etree(a, compress=False)
        )


class TestForestUtilities:
    def setup_method(self):
        #      5        6 (roots)
        #     / \       |
        #    2   4      3
        #   / \  |
        #  0   1 .
        self.parent = np.array([2, 2, 5, 6, 5, -1, -1])

    def test_roots(self):
        assert forest_roots(self.parent).tolist() == [5, 6]

    def test_children(self):
        ch = forest_children(self.parent)
        assert ch[2] == [0, 1]
        assert ch[5] == [2, 4]
        assert ch[6] == [3]
        assert ch[0] == []

    def test_children_arrays_match_lists(self):
        ptr, flat = forest_children_arrays(self.parent)
        lists = forest_children(self.parent)
        for v in range(self.parent.size):
            assert flat[ptr[v] : ptr[v + 1]].tolist() == lists[v]

    def test_children_arrays_empty(self):
        ptr, flat = forest_children_arrays(np.array([], dtype=np.int64))
        assert ptr.tolist() == [0]
        assert flat.size == 0

    def test_postorder_is_topological(self):
        p = postorder_forest(self.parent)
        assert is_forest_permutation_topological(self.parent, p)
        assert sorted(p.tolist()) == list(range(7))

    def test_postorder_keeps_subtrees_contiguous(self):
        p = postorder_forest(self.parent)
        # Subtree of 2 = {0,1,2}: labels must be 3 consecutive ints ending
        # at p[2].
        labels = sorted([p[0], p[1], p[2]])
        assert labels == list(range(labels[0], labels[0] + 3))
        assert labels[-1] == p[2]

    def test_postorder_of_postordered_is_identity(self):
        p = postorder_forest(self.parent)
        relabeled = relabel_forest(self.parent, p)
        p2 = postorder_forest(relabeled)
        assert np.array_equal(p2, np.arange(7))

    def test_relabel_forest(self):
        p = postorder_forest(self.parent)
        relabeled = relabel_forest(self.parent, p)
        assert is_forest_permutation_topological(relabeled, np.arange(7))
        # Same number of roots.
        assert forest_roots(relabeled).size == 2

    def test_topological_check_rejects_bad_perm(self):
        bad = np.array([6, 5, 4, 3, 2, 1, 0])  # reverses parent/child order
        assert not is_forest_permutation_topological(self.parent, bad)

    def test_empty_forest(self):
        p = postorder_forest(np.array([], dtype=np.int64))
        assert p.size == 0

    def test_single_node(self):
        p = postorder_forest(np.array([-1]))
        assert p.tolist() == [0]

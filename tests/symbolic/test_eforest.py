"""LU elimination forest tests (Definition 1, Theorems 1-2)."""

import numpy as np
import pytest

from repro.sparse.convert import csc_from_dense
from repro.sparse.generators import random_sparse
from repro.sparse.ops import permute
from repro.ordering.transversal import zero_free_diagonal_permutation
from repro.symbolic.characterization import verify_theorem1, verify_theorem2
from repro.symbolic.eforest import extended_eforest
from repro.symbolic.static_fill import static_symbolic_factorization


def prepared_fill(n, seed, density=0.15):
    a = random_sparse(n, density=density, seed=seed)
    a = permute(a, row_perm=zero_free_diagonal_permutation(a))
    return static_symbolic_factorization(a)


class TestDefinition:
    def test_parent_definition_by_hand(self):
        # Ā constructed directly (already its own static fill):
        #     0  1  2  3
        #  0 [x  .  x  .]
        #  1 [.  x  .  x]
        #  2 [x  .  x  x]
        #  3 [.  x  x  x]
        dense = np.array(
            [
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 1.0],
                [1.0, 0.0, 1.0, 1.0],
                [0.0, 1.0, 1.0, 1.0],
            ]
        )
        fill = static_symbolic_factorization(csc_from_dense(dense))
        parent = fill.parent
        # Column 0 of L has row 2 => parent(0) = min{r>0: u_0r != 0} = 2.
        assert parent[0] == 2
        # Column 1 of L has row 3; the step-1 merge of rows {1,3} puts
        # column 2 into row 1's structure, so parent(1) = 2.
        assert parent[1] == 2

    def test_parent_greater_than_child(self):
        fill = prepared_fill(30, 0)
        parent = fill.parent
        for j in range(30):
            assert parent[j] == -1 or parent[j] > j

    def test_lone_l_column_is_root(self):
        # Upper triangular matrix: every L column is a lone diagonal.
        dense = np.triu(np.ones((5, 5)))
        fill = static_symbolic_factorization(csc_from_dense(dense))
        parent = fill.parent
        assert (parent == -1).all()

    def test_diagonal_matrix_all_roots(self):
        fill = static_symbolic_factorization(csc_from_dense(np.eye(4)))
        assert (fill.parent == -1).all()


class TestTheorems:
    @pytest.mark.parametrize("seed", range(8))
    def test_theorem1(self, seed):
        fill = prepared_fill(25, seed)
        forest = extended_eforest(fill)
        assert verify_theorem1(fill, forest)

    @pytest.mark.parametrize("seed", range(8))
    def test_theorem2(self, seed):
        fill = prepared_fill(25, seed)
        forest = extended_eforest(fill)
        assert verify_theorem2(fill, forest)


class TestExtendedForest:
    def test_is_ancestor_matches_parent_walk(self):
        fill = prepared_fill(30, 3)
        forest = extended_eforest(fill)
        for v in range(30):
            path, u = {v}, v
            while forest.parent[u] != -1:
                u = int(forest.parent[u])
                path.add(u)
            for x in range(30):
                assert (x in path) == forest.is_ancestor(x, v)

    def test_first_l_in_row(self):
        fill = prepared_fill(25, 5)
        forest = extended_eforest(fill)
        l_pat = fill.l_pattern()
        first = np.full(25, 25, dtype=int)
        for j in range(25):
            for i in l_pat.col_rows(j):
                first[i] = min(first[i], j)
        for i in range(25):
            expected = first[i] if first[i] < 25 else i
            assert forest.first_l_in_row[i] == expected

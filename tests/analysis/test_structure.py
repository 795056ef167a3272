"""Structural invariant linter tests: clean inputs pass, corrupted fail."""

import dataclasses
from types import SimpleNamespace

import numpy as np

from tests import conftest
from tests.conftest import random_pivot_matrix
from repro.analysis import (
    check_btf,
    check_csc,
    check_forest,
    check_forest_matches,
    check_partition,
    check_plan,
    check_postorder,
)
from repro.serve.plan import build_plan
from repro.sparse.csc import CSCMatrix
from repro.symbolic.postorder import block_upper_triangular_blocks
from repro.symbolic.supernodes import SupernodePartition


def analyzed(seed=0, n=35):
    return conftest.analyzed(random_pivot_matrix(n, seed))


def checks_of(findings):
    return {f.check for f in findings}


class TestCSC:
    def test_clean_pattern(self):
        plan, _ = analyzed()
        assert check_csc(plan.fill.pattern) == []

    def test_unsorted_column_flagged(self):
        a = CSCMatrix(
            2,
            2,
            np.array([0, 2, 2]),
            np.array([1, 0]),  # descending rows in column 0
            check=False,
        )
        assert "csc.column_sorted_unique" in checks_of(check_csc(a))

    def test_duplicate_row_flagged(self):
        a = CSCMatrix(2, 2, np.array([0, 2, 2]), np.array([1, 1]), check=False)
        assert "csc.column_sorted_unique" in checks_of(check_csc(a))

    def test_row_out_of_range_flagged(self):
        a = CSCMatrix(2, 2, np.array([0, 1, 1]), np.array([5]), check=False)
        assert "csc.rows_in_range" in checks_of(check_csc(a))

    def test_bad_indptr_flagged(self):
        a = CSCMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]), check=False)
        assert "csc.indptr_monotone" in checks_of(check_csc(a))


class TestForestAndPostorder:
    def test_pipeline_eforest_clean(self):
        plan, _ = analyzed(1)
        parent = plan.fill.parent
        assert check_forest(parent) == []
        assert check_postorder(parent) == []

    def test_carried_forest_matches_pattern(self):
        from repro.symbolic.eforest import lu_elimination_forest_reference

        plan, _ = analyzed(1)
        derived = lu_elimination_forest_reference(plan.fill)
        assert check_forest_matches(plan.fill.parent, derived) == []
        bad = plan.fill.parent.copy()
        bad[3] = -2
        (finding,) = check_forest_matches(bad, derived)
        assert finding.check == "forest.matches_pattern"
        assert finding.detail["nodes"] == [3]
        assert check_forest_matches(bad[:-1], derived)

    def test_non_monotone_parent_flagged(self):
        parent = np.array([2, 0, -1])  # parent(1) = 0 < 1
        assert "forest.parent_monotone" in checks_of(check_forest(parent))

    def test_parent_out_of_range_flagged(self):
        parent = np.array([5, -1, -1])
        assert "forest.parent_monotone" in checks_of(check_forest(parent))

    def test_non_postorder_flagged(self):
        # A monotone forest that is not a postorder: node 2's subtree is
        # {0, 2} (labels not contiguous — 1 is a root in the middle).
        bad = np.array([2, -1, 3, -1])
        assert check_forest(bad) == []
        assert "postorder.subtree_contiguous" in checks_of(
            check_postorder(bad)
        )
        # Relabeled validly: 0 under 1, both under the root 3.
        good = np.array([1, 3, 3, -1])
        assert check_postorder(good) == []

    def test_chain_is_postorder(self):
        n = 6
        parent = np.arange(1, n + 1, dtype=np.int64)
        parent[-1] = -1
        assert check_postorder(parent) == []


class TestPartition:
    def test_clean(self):
        plan, _ = analyzed(2)
        assert check_partition(plan.bp.partition, plan.bp.partition.n) == []

    def test_wrong_cover_flagged(self):
        # SupernodePartition itself enforces zero-start and monotonicity,
        # so the only corrupt real instance is one covering too few columns.
        p = SupernodePartition(starts=np.array([0, 3, 5]))
        assert "supernodes.covers_matrix" in checks_of(check_partition(p, 6))

    def test_gap_flagged(self):
        p = SimpleNamespace(starts=np.array([0, 3, 3, 5]))
        assert "supernodes.contiguous" in checks_of(check_partition(p, 5))

    def test_missing_zero_flagged(self):
        p = SimpleNamespace(starts=np.array([1, 3, 5]))
        assert "supernodes.starts_at_zero" in checks_of(check_partition(p, 5))


class TestBTF:
    def test_pipeline_btf_clean(self):
        plan, _ = analyzed(3)
        parent = plan.fill.parent
        blocks = block_upper_triangular_blocks(parent)
        assert check_btf(plan.fill.pattern, blocks) == []

    def test_gap_in_blocks_flagged(self):
        plan, _ = analyzed(3)
        assert "btf.blocks_cover" in checks_of(
            check_btf(plan.fill.pattern, [(0, 2), (3, plan.fill.n)])
        )

    def test_entry_below_diagonal_flagged(self):
        # Dense 2x2 split into two 1x1 blocks: entry (1, 0) sits below.
        a = CSCMatrix(2, 2, np.array([0, 2, 4]), np.array([0, 1, 0, 1]))
        assert "btf.upper_triangular" in checks_of(
            check_btf(a, [(0, 1), (1, 2)])
        )


class TestPlan:
    def test_pipeline_plan_clean(self):
        plan = build_plan(random_pivot_matrix(40, 7))
        assert check_plan(plan) == []

    def test_broken_row_perm_flagged(self):
        plan = build_plan(random_pivot_matrix(40, 7))
        bad = dataclasses.replace(plan, row_perm=np.zeros_like(plan.row_perm))
        assert "plan.perm_valid" in checks_of(check_plan(bad))

    def test_broken_inverse_flagged(self):
        plan = build_plan(random_pivot_matrix(40, 8))
        rpi = np.asarray(plan.row_perm_inv).copy()
        rpi[[0, 1]] = rpi[[1, 0]]
        bad = dataclasses.replace(plan, row_perm_inv=rpi)
        assert "plan.perm_round_trip" in checks_of(check_plan(bad))

"""Footprint model tests: sorted/unique row sets, coverage invariants."""

import numpy as np

from tests import conftest
from tests.conftest import random_pivot_matrix
from repro.analysis import (
    ORIG_AT_REGION,
    expected_factor_tasks,
    expected_solve_tasks,
    factor_footprints,
    region_label,
    solve_footprints,
    solve_region_label,
)
from repro.analysis.footprints import candidate_rows, stored_rows, supported_rows
from repro.taskgraph.tasks import Task


def analyzed(seed=0, n=35):
    return conftest.analyzed(random_pivot_matrix(n, seed))


def is_sorted_unique(a):
    return a.size < 2 or bool(np.all(np.diff(a) > 0))


class TestRowSets:
    def test_stored_rows_sorted_unique(self):
        plan, _ = analyzed()
        for j in range(plan.bp.n_blocks):
            assert is_sorted_unique(stored_rows(plan.bp, j))

    def test_candidate_rows_start_at_diagonal(self):
        plan, _ = analyzed(1)
        starts = plan.bp.partition.starts
        for k in range(plan.bp.n_blocks):
            rows = candidate_rows(plan.bp, k)
            assert rows.size  # the diagonal is always stored
            assert rows.min() >= starts[k]

    def test_supported_rows_contain_diagonal_range(self):
        # TRSM soundness: supernode k's full diagonal row range must be
        # fill-supported, so the block-(k, j) write is inside the model.
        plan, _ = analyzed(2)
        starts = plan.bp.partition.starts
        support = supported_rows(plan.bp, plan.fill)
        for k in range(plan.bp.n_blocks):
            diag = np.arange(starts[k], starts[k + 1])
            assert np.all(np.isin(diag, support[k]))

    def test_supported_subset_of_candidate(self):
        plan, _ = analyzed(3)
        support = supported_rows(plan.bp, plan.fill)
        for k in range(plan.bp.n_blocks):
            assert np.all(np.isin(support[k], candidate_rows(plan.bp, k)))


class TestFactorFootprints:
    def test_covers_every_enumerated_task(self):
        plan, _ = analyzed(4)
        fps = factor_footprints(plan.bp, plan.fill)
        assert set(fps) == expected_factor_tasks(plan.bp)

    def test_all_row_sets_sorted_unique(self):
        plan, _ = analyzed(4)
        for fp in factor_footprints(plan.bp, plan.fill).values():
            for r in fp.regions():
                assert is_sorted_unique(fp.accessed(r))
                assert is_sorted_unique(fp.written(r))

    def test_factor_task_touches_own_panel_and_orig_at(self):
        plan, _ = analyzed(5)
        fps = factor_footprints(plan.bp, plan.fill)
        for k in range(plan.bp.n_blocks):
            fp = fps[Task("F", k, k)]
            assert fp.regions() == {k, ORIG_AT_REGION}
            assert fp.written(k).size

    def test_update_task_writes_only_target_panel(self):
        plan, _ = analyzed(6)
        fps = factor_footprints(plan.bp, plan.fill)
        for t, fp in fps.items():
            if t.kind != "U":
                continue
            assert set(fp.writes) == {t.j}
            assert set(fp.reads) == {t.k, t.j}

    def test_accessed_is_memoized(self):
        plan, _ = analyzed(6)
        fps = factor_footprints(plan.bp, plan.fill)
        fp = next(iter(fps.values()))
        r = next(iter(fp.regions()))
        assert fp.accessed(r) is fp.accessed(r)

    def test_mismatched_fill_rejected(self):
        plan, _ = analyzed(6)
        other, _ = analyzed(seed=0, n=20)
        try:
            factor_footprints(plan.bp, other.fill)
        except ValueError:
            pass
        else:
            raise AssertionError("size mismatch not rejected")


class TestSolveFootprints:
    def test_covers_every_solve_task(self):
        plan, _ = analyzed(7)
        fps = solve_footprints(plan.bp)
        assert set(fps) == expected_solve_tasks(plan.bp.n_blocks)

    def test_each_task_writes_own_block(self):
        plan, _ = analyzed(7)
        for t, fp in solve_footprints(plan.bp).items():
            assert list(fp.writes) == [t.k]
            assert fp.written(t.k).tolist() == [t.k]

    def test_forward_reads_mirror_lower_structure(self):
        plan, _ = analyzed(8)
        fps = solve_footprints(plan.bp)
        for i in range(plan.bp.n_blocks):
            col = plan.bp.col_blocks(i)
            for k in col[col > i]:
                fp = fps[Task("FS", int(k), int(k))]
                assert i in fp.reads


class TestLabels:
    def test_region_labels(self):
        assert region_label(ORIG_AT_REGION) == "orig_at"
        assert region_label(3) == "panel 3"
        assert solve_region_label(3) == "rhs block 3"

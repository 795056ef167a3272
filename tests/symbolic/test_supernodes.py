"""Supernode partitioning and amalgamation tests (paper §3)."""

import numpy as np
import pytest

from repro.sparse.convert import csc_from_dense
from repro.sparse.generators import paper_matrix, random_sparse
from repro.sparse.ops import permute
from repro.ordering.transversal import zero_free_diagonal_permutation
from repro.symbolic.postorder import postorder_pipeline
from repro.symbolic.static_fill import static_symbolic_factorization
from repro.symbolic.supernodes import (
    SupernodePartition,
    amalgamate,
    block_pattern,
    supernode_partition,
)
from repro.util.errors import PatternError


def prepared_fill(n, seed, density=0.12):
    a = random_sparse(n, density=density, seed=seed)
    a = permute(a, row_perm=zero_free_diagonal_permutation(a))
    return static_symbolic_factorization(a)


class TestPartitionClass:
    def test_valid_boundaries(self):
        p = SupernodePartition(starts=np.array([0, 2, 5, 7]))
        assert p.n_supernodes == 3
        assert p.n == 7
        assert p.sizes().tolist() == [2, 3, 2]
        assert p.span(1) == (2, 5)
        assert p.member_of().tolist() == [0, 0, 1, 1, 1, 2, 2]
        assert p.mean_size() == pytest.approx(7 / 3)

    def test_invalid_boundaries(self):
        with pytest.raises(PatternError):
            SupernodePartition(starts=np.array([1, 3]))
        with pytest.raises(PatternError):
            SupernodePartition(starts=np.array([0, 3, 3]))


class TestPartitionRule:
    def test_dense_matrix_single_supernode(self):
        fill = static_symbolic_factorization(csc_from_dense(np.ones((6, 6))))
        part = supernode_partition(fill)
        assert part.n_supernodes == 1

    def test_diagonal_matrix_all_singletons(self):
        fill = static_symbolic_factorization(csc_from_dense(np.eye(5)))
        part = supernode_partition(fill)
        assert part.n_supernodes == 5

    def test_merged_columns_have_nested_structure(self):
        """Columns in one supernode satisfy struct(L_*j)\\{j} == struct(L_*j+1)."""
        fill = prepared_fill(30, 0)
        part = supernode_partition(fill)
        for s in range(part.n_supernodes):
            lo, hi = part.span(s)
            for j in range(lo, hi - 1):
                cur = fill.pattern.col_rows(j)
                nxt = fill.pattern.col_rows(j + 1)
                cur_low = cur[cur > j]
                nxt_low = nxt[nxt >= j + 1]
                assert np.array_equal(cur_low, nxt_low), f"cols {j},{j + 1}"

    def test_postordering_reduces_supernode_count(self):
        """The headline Table 3 effect at unit-test scale."""
        reduced = 0
        total = 0
        for name in ("sherman3", "orsreg1"):
            a = paper_matrix(name, scale=0.12)
            from repro.ordering.mindeg import minimum_degree_ata

            a = permute(a, row_perm=zero_free_diagonal_permutation(a))
            q = minimum_degree_ata(a)
            a = permute(a, row_perm=q, col_perm=q)
            fill = static_symbolic_factorization(a)
            sn = amalgamate(fill, supernode_partition(fill)).n_supernodes
            po = postorder_pipeline(fill)
            snpo = amalgamate(po.fill, supernode_partition(po.fill)).n_supernodes
            total += 1
            if snpo <= sn:
                reduced += 1
        assert reduced == total


class TestAmalgamation:
    def test_reduces_or_keeps_count(self):
        fill = prepared_fill(40, 1)
        raw = supernode_partition(fill)
        merged = amalgamate(fill, raw)
        assert merged.n_supernodes <= raw.n_supernodes

    def test_zero_tolerance_changes_nothing_without_free_merges(self):
        fill = prepared_fill(40, 2)
        raw = supernode_partition(fill)
        merged = amalgamate(fill, raw, max_padding=0.0)
        # tol=0 only merges when no padding at all is introduced.
        assert merged.n_supernodes >= raw.n_supernodes - raw.n_supernodes
        for s in range(merged.n_supernodes):
            lo, hi = merged.span(s)
            from repro.symbolic.supernodes import _padding_cost

            stored, padded = _padding_cost(fill, lo, hi)
            assert padded == 0

    def test_respects_max_size(self):
        # Amalgamation never merges past max_size (raw supernodes wider than
        # the cap are left as-is — it merges, never splits).
        fill = prepared_fill(40, 3)
        raw = supernode_partition(fill)
        merged = amalgamate(fill, raw, max_padding=0.9, max_size=4)
        raw_starts = set(raw.starts.tolist())
        for s in range(merged.n_supernodes):
            lo, hi = merged.span(s)
            is_raw = lo in raw_starts and hi in raw_starts and not any(
                b in raw_starts for b in range(lo + 1, hi)
            )
            assert is_raw or hi - lo <= 4

    def test_higher_tolerance_merges_more(self):
        fill = prepared_fill(40, 4)
        raw = supernode_partition(fill)
        lo = amalgamate(fill, raw, max_padding=0.05)
        hi = amalgamate(fill, raw, max_padding=0.6)
        assert hi.n_supernodes <= lo.n_supernodes

    def test_invalid_tolerance(self):
        fill = prepared_fill(10, 5)
        with pytest.raises(ValueError):
            amalgamate(fill, supernode_partition(fill), max_padding=1.5)


class TestAmalgamationKeepsTheGraphSound:
    """Wide bounds make the greedy glue eforest-unrelated columns; groups
    whose conflicts the block eforest cannot order are cut back to chains."""

    # (matrix, options) the pure greedy gets wrong at these bounds.
    CASES = [
        ("random30", dict(postorder=False)),
        ("random250", dict()),
        ("sherman3", dict()),
        ("sherman3", dict(postorder=False)),
        ("lnsp3937", dict(postorder=False, max_padding=0.9, max_supernode=64)),
    ]

    @staticmethod
    def matrix(name):
        from tests.conftest import random_pivot_matrix

        if name == "random30":
            return random_pivot_matrix(30, 1)
        if name == "random250":
            return random_pivot_matrix(250, 1, density=0.012)
        return paper_matrix(name, scale=0.12)

    @pytest.mark.parametrize("name,opts", CASES)
    def test_no_unordered_conflict_where_the_greedy_had_one(self, name, opts):
        from repro.analysis import analyze_plan
        from repro.numeric.solver import SolverOptions
        from repro.serve import build_plan
        from repro.symbolic.supernodes import (
            _entries,
            _greedy_merge,
            _unordered_groups,
        )

        options = SolverOptions(**opts)
        plan = build_plan(self.matrix(name), options)
        fill, entries = plan.fill, _entries(plan.fill)
        raw = supernode_partition(fill)
        greedy = _greedy_merge(
            fill, raw, False, options.max_padding, options.max_supernode, entries
        )
        assert _unordered_groups(fill, greedy, entries).size
        assert not _unordered_groups(fill, plan.partition, entries).size
        # Only the offending groups were cut, and only at raw boundaries.
        assert set(greedy.starts) <= set(plan.partition.starts) <= set(raw.starts)
        if options.postorder:
            assert plan.partition.n_supernodes <= greedy.n_supernodes + 4
        report = analyze_plan(plan)
        assert report.ok, report.render()

    @pytest.mark.parametrize("postorder", [True, False])
    @pytest.mark.parametrize("name", ["sherman3", "sherman5", "goodwin", "orsreg1"])
    def test_paper_bounds_are_the_plain_greedy(self, name, postorder):
        from repro.numeric.solver import SolverOptions
        from repro.serve import build_plan
        from repro.symbolic.supernodes import _entries, _greedy_merge

        plan = build_plan(
            paper_matrix(name, scale=0.12),
            SolverOptions(
                ordering="mindeg", postorder=postorder,
                max_padding=0.25, max_supernode=48,
            ),
        )
        greedy = _greedy_merge(
            plan.fill, supernode_partition(plan.fill), False, 0.25, 48,
            _entries(plan.fill),
        )
        assert np.array_equal(plan.partition.starts, greedy.starts)

    def test_empty_matrix(self):
        from repro.sparse.csc import CSCMatrix

        empty = CSCMatrix(
            n_rows=0, n_cols=0, indptr=np.zeros(1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int64), data=None,
        )
        fill = static_symbolic_factorization(empty)
        assert amalgamate(fill, supernode_partition(fill)).n_supernodes == 0


class TestBlockPattern:
    def test_covers_all_entries(self):
        fill = prepared_fill(30, 6)
        part = amalgamate(fill, supernode_partition(fill))
        bp = block_pattern(fill, part)
        member = part.member_of()
        for j in range(30):
            bj = member[j]
            for i in fill.pattern.col_rows(j):
                assert bp.has_block(int(member[i]), int(bj))

    def test_diagonal_blocks_stored(self):
        fill = prepared_fill(30, 7)
        part = supernode_partition(fill)
        bp = block_pattern(fill, part)
        for k in range(bp.n_blocks):
            assert bp.has_block(k, k)

    def test_row_blocks_matches_col_blocks(self):
        fill = prepared_fill(30, 8)
        bp = block_pattern(fill, supernode_partition(fill))
        for k in range(bp.n_blocks):
            for j in bp.row_blocks(k):
                assert bp.has_block(k, int(j))

    def test_partition_size_mismatch(self):
        fill = prepared_fill(10, 9)
        bad = SupernodePartition(starts=np.array([0, 5]))
        with pytest.raises(PatternError):
            block_pattern(fill, bad)

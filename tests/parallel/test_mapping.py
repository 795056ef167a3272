"""1-D mapping policy tests."""

import numpy as np
import pytest

from tests import conftest
from tests.conftest import random_pivot_matrix
from repro.numeric.costs import CostModel
from repro.parallel.mapping import (
    blocked_mapping,
    cyclic_mapping,
    greedy_mapping,
    make_mapping,
)
from repro.taskgraph.tasks import enumerate_tasks


def analyzed(seed=0):
    return conftest.analyzed(random_pivot_matrix(30, seed))


class TestCyclic:
    def test_round_robin(self):
        assert cyclic_mapping(7, 3).tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_single_proc(self):
        assert (cyclic_mapping(5, 1) == 0).all()


class TestBlocked:
    def test_contiguous_chunks(self):
        m = blocked_mapping(8, 2)
        assert m.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_covers_all_procs(self):
        m = blocked_mapping(10, 4)
        assert set(m.tolist()) == {0, 1, 2, 3}
        assert (np.diff(m) >= 0).all()


class TestGreedy:
    def test_balances_load(self):
        plan, _ = analyzed()
        owner = greedy_mapping(plan.bp, 4)
        model = CostModel(plan.bp)
        load = np.zeros(4)
        for t in enumerate_tasks(plan.bp):
            load[owner[t.target]] += model.flops(t)
        # LPT-style bound: the heaviest processor exceeds the lightest by at
        # most one column's worth of work.
        col_work = np.zeros(plan.bp.n_blocks)
        for t in enumerate_tasks(plan.bp):
            col_work[t.target] += model.flops(t)
        assert load.max() - load.min() <= col_work.max() + 1e-9
        # And greedy beats cyclic on imbalance.
        cyc = np.zeros(4)
        for t in enumerate_tasks(plan.bp):
            cyc[t.target % 4] += model.flops(t)
        assert load.max() <= cyc.max() + 1e-9

    def test_valid_range(self):
        plan, _ = analyzed(1)
        owner = greedy_mapping(plan.bp, 3)
        assert owner.min() >= 0 and owner.max() < 3
        assert owner.size == plan.bp.n_blocks


class TestMakeMapping:
    def test_dispatch(self):
        plan, _ = analyzed(2)
        for policy in ("cyclic", "blocked", "greedy"):
            owner = make_mapping(policy, plan.bp, 2)
            assert owner.size == plan.bp.n_blocks

    def test_unknown_policy(self):
        plan, _ = analyzed(3)
        with pytest.raises(ValueError):
            make_mapping("random", plan.bp, 2)

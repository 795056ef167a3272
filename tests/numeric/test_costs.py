"""Cost-model tests."""


from tests import conftest
from tests.conftest import random_pivot_matrix
from repro.numeric.costs import CostModel
from repro.numeric.kernels import lu_panel_flops
from repro.taskgraph.tasks import enumerate_tasks, factor_task


def analyzed(seed=0, n=30):
    return conftest.analyzed(random_pivot_matrix(n, seed))


class TestFlops:
    def test_all_tasks_priced(self):
        plan, _ = analyzed()
        model = CostModel(plan.bp)
        assert all(model.flops(t) >= 0 for t in enumerate_tasks(plan.bp))

    def test_factor_cost_matches_formula(self):
        plan, _ = analyzed(1)
        model = CostModel(plan.bp)
        import numpy as np

        for k in range(min(5, plan.bp.n_blocks)):
            blocks = plan.bp.col_blocks(k)
            widths = np.diff(plan.partition.starts)
            rows = int(np.sum(widths[blocks[blocks >= k]]))
            w = int(widths[k])
            assert model.flops(factor_task(k)) == lu_panel_flops(rows, w)

    def test_update_cost_positive(self):
        plan, _ = analyzed(2)
        model = CostModel(plan.bp)
        for t in enumerate_tasks(plan.bp):
            if t.kind == "U":
                assert model.flops(t) > 0
                break


class TestCommBytes:
    def test_factor_tasks_free(self):
        plan, _ = analyzed(3)
        assert CostModel(plan.bp).comm_bytes(factor_task(0)) == 0

    def test_update_tasks_cost_panel_size(self):
        plan, _ = analyzed(4)
        model = CostModel(plan.bp)
        for t in enumerate_tasks(plan.bp):
            if t.kind == "U":
                b = model.comm_bytes(t)
                rows = int(model.panel_rows[t.k])
                w = int(model.widths[t.k])
                assert b == rows * w * 8 + 2 * rows * 4
                break

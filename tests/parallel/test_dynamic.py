"""Dynamic runtime scheduler tests (future-work §6)."""

import numpy as np
import pytest

from tests import conftest
from tests.conftest import random_pivot_matrix
from repro.numeric.factor import LUFactorization
from repro.serve import NumericFactorization
from repro.parallel.dynamic import DynamicRuntime
from repro.taskgraph.dag import TaskGraph


def analyzed(seed=0, n=35):
    return conftest.analyzed(random_pivot_matrix(n, seed))


class TestLazyGraphEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_edge_set_matches_static_graph(self, seed):
        """The lazily-derived relation IS the eforest graph."""
        plan, _ = analyzed(seed)
        rt = DynamicRuntime(plan.bp)
        g = TaskGraph()
        for t in rt.tasks():
            g.add_task(t)
            for succ in rt.successors(t):
                g.add_edge(t, succ)
        assert g.n_tasks == plan.graph.n_tasks
        assert g.n_edges == plan.graph.n_edges
        for t in plan.graph.tasks():
            assert sorted(map(str, g.successors(t))) == sorted(
                map(str, plan.graph.successors(t))
            )

    def test_in_degrees_match(self):
        plan, _ = analyzed(1)
        rt = DynamicRuntime(plan.bp)
        indeg = rt.initial_in_degrees()
        for t in plan.graph.tasks():
            assert indeg[t] == plan.graph.in_degree(t)


class TestExecution:
    @pytest.mark.parametrize("fifo", [True, False])
    def test_matches_sequential(self, fifo):
        plan, a_work = analyzed(2)
        ref = LUFactorization(a_work, plan.bp)
        ref.factor_sequential()
        ref_l = ref.extract().l_factor.to_dense()
        eng = LUFactorization(a_work, plan.bp)
        order = DynamicRuntime(plan.bp).run(eng, fifo=fifo)
        assert len(order) == plan.graph.n_tasks
        assert np.allclose(eng.extract().l_factor.to_dense(), ref_l)

    def test_executed_order_is_topological(self):
        plan, a_work = analyzed(3)
        rt = DynamicRuntime(plan.bp)
        eng = LUFactorization(a_work, plan.bp)
        order = rt.run(eng)
        pos = {t: i for i, t in enumerate(order)}
        for t in order:
            for succ in rt.successors(t):
                assert pos[t] < pos[succ]

    def test_solves_correctly(self):
        a = random_pivot_matrix(30, 4)
        plan, a_work = conftest.analyzed(a)
        eng = LUFactorization(a_work, plan.bp)
        DynamicRuntime(plan.bp).run(eng)
        fact = NumericFactorization(plan, a, a_work, eng.extract())
        b = np.ones(30)
        assert fact.residual_norm(fact.solve(b), b) < 1e-9

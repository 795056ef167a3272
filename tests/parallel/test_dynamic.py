"""Dynamic runtime scheduler tests (future-work §6)."""

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix
from repro.numeric.factor import LUFactorization
from repro.numeric.solver import SparseLUSolver
from repro.parallel.dynamic import DynamicRuntime
from repro.taskgraph.dag import TaskGraph


def analyzed(seed=0, n=35):
    return SparseLUSolver(random_pivot_matrix(n, seed)).analyze()


class TestLazyGraphEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_edge_set_matches_static_graph(self, seed):
        """The lazily-derived relation IS the eforest graph."""
        s = analyzed(seed)
        rt = DynamicRuntime(s.bp)
        g = TaskGraph()
        for t in rt.tasks():
            g.add_task(t)
            for succ in rt.successors(t):
                g.add_edge(t, succ)
        assert g.n_tasks == s.graph.n_tasks
        assert g.n_edges == s.graph.n_edges
        for t in s.graph.tasks():
            assert sorted(map(str, g.successors(t))) == sorted(
                map(str, s.graph.successors(t))
            )

    def test_in_degrees_match(self):
        s = analyzed(1)
        rt = DynamicRuntime(s.bp)
        indeg = rt.initial_in_degrees()
        for t in s.graph.tasks():
            assert indeg[t] == s.graph.in_degree(t)


class TestExecution:
    @pytest.mark.parametrize("fifo", [True, False])
    def test_matches_sequential(self, fifo):
        s = analyzed(2)
        ref = LUFactorization(s.a_work, s.bp)
        ref.factor_sequential()
        ref_l = ref.extract().l_factor.to_dense()
        eng = LUFactorization(s.a_work, s.bp)
        order = DynamicRuntime(s.bp).run(eng, fifo=fifo)
        assert len(order) == s.graph.n_tasks
        assert np.allclose(eng.extract().l_factor.to_dense(), ref_l)

    def test_executed_order_is_topological(self):
        s = analyzed(3)
        rt = DynamicRuntime(s.bp)
        eng = LUFactorization(s.a_work, s.bp)
        order = rt.run(eng)
        pos = {t: i for i, t in enumerate(order)}
        for t in order:
            for succ in rt.successors(t):
                assert pos[t] < pos[succ]

    def test_solves_correctly(self):
        a = random_pivot_matrix(30, 4)
        s = SparseLUSolver(a).analyze()
        eng = LUFactorization(s.a_work, s.bp)
        DynamicRuntime(s.bp).run(eng)
        s.result = eng.extract()
        b = np.ones(30)
        assert s.residual_norm(s.solve(b), b) < 1e-9

"""Transitive reduction and parallelism-metric tests."""


from tests.conftest import analyzed, random_pivot_matrix
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.sstar import build_sstar_graph
from repro.taskgraph.tasks import factor_task


def path_graph(n):
    g = TaskGraph()
    for i in range(n - 1):
        g.add_edge(factor_task(i), factor_task(i + 1))
    return g


class TestTransitiveReduction:
    def test_removes_shortcut_edge(self):
        g = path_graph(3)
        g.add_edge(factor_task(0), factor_task(2))  # implied by the path
        r = g.transitive_reduction()
        assert r.n_edges == 2
        assert not r.has_edge(factor_task(0), factor_task(2))
        assert r.has_path(factor_task(0), factor_task(2))

    def test_irreducible_graph_unchanged(self):
        g = path_graph(5)
        r = g.transitive_reduction()
        assert r.n_edges == g.n_edges

    def test_preserves_reachability(self):
        plan, _ = analyzed(random_pivot_matrix(25, 0))
        g = plan.graph
        r = g.transitive_reduction()
        assert r.n_edges <= g.n_edges
        for t in g.tasks():
            for succ in g.successors(t):
                assert r.has_path(t, succ)

    def test_diamond(self):
        g = TaskGraph()
        a, b, c, d = (factor_task(i) for i in range(4))
        g.add_edge(a, b)
        g.add_edge(a, c)
        g.add_edge(b, d)
        g.add_edge(c, d)
        g.add_edge(a, d)  # redundant
        r = g.transitive_reduction()
        assert r.n_edges == 4


class TestConcurrentPairs:
    def test_chain_has_none(self):
        assert path_graph(4).count_concurrent_pairs() == 0

    def test_antichain_has_all(self):
        g = TaskGraph()
        for i in range(5):
            g.add_task(factor_task(i))
        assert g.count_concurrent_pairs() == 10

    def test_diamond(self):
        g = TaskGraph()
        a, b, c, d = (factor_task(i) for i in range(4))
        g.add_edge(a, b)
        g.add_edge(a, c)
        g.add_edge(b, d)
        g.add_edge(c, d)
        assert g.count_concurrent_pairs() == 1  # only (b, c)

    def test_eforest_exposes_at_least_sstar_parallelism(self):
        """§4 quantified: the eforest graph never orders more pairs than
        S* does."""
        for seed in range(3):
            plan, _ = analyzed(random_pivot_matrix(30, seed))
            g_new = plan.graph
            g_old = build_sstar_graph(plan.bp)
            assert (
                g_new.count_concurrent_pairs() >= g_old.count_concurrent_pairs()
            )

"""ASCII spy-plot and forest-rendering tests."""

import numpy as np

from repro.sparse.convert import csc_from_dense
from repro.util.spy import render_forest, spy


class TestSpy:
    def test_small_matrix_exact(self):
        a = csc_from_dense(np.array([[1.0, 0.0], [1.0, 1.0]]))
        out = spy(a)
        body = [l for l in out.splitlines() if l and l[0].isdigit() or l.startswith("  0")]
        assert "#" in out
        assert "." in out

    def test_empty(self):
        assert "empty" in spy(csc_from_dense(np.zeros((0, 0))))

    def test_binning_large(self):
        n = 200
        a = csc_from_dense(np.eye(n))
        out = spy(a, max_size=20)
        assert "10x10 cells" in out

    def test_blocks_marked(self):
        a = csc_from_dense(np.eye(8))
        out = spy(a, blocks=[(0, 4), (4, 8)])
        header = out.splitlines()[0]
        assert header.count("+") >= 2

    def test_footer(self):
        a = csc_from_dense(np.eye(3))
        assert "nnz=3" in spy(a)


class TestRenderForest:
    def test_small_tree(self):
        #    2
        #   / \
        #  0   1      3 (root)
        out = render_forest(np.array([2, 2, -1, -1]))
        lines = out.splitlines()
        assert lines[0] == "2"
        assert any("0" in l and ("|--" in l or "`--" in l) for l in lines)
        assert "3" in lines[-1]

    def test_large_forest_summarized(self):
        parent = np.arange(1, 101)  # one path of 100 nodes
        parent = np.append(parent, -1)  # root at 100... fix lengths
        parent = np.full(100, -1)
        parent[:-1] = np.arange(1, 100)
        out = render_forest(parent, max_nodes=50)
        assert "summary" in out
        assert "~100 nodes" in out

    def test_single_node(self):
        assert render_forest(np.array([-1])).strip() == "0"

    def test_from_real_eforest(self):
        from tests.conftest import analyzed, random_pivot_matrix
        from repro.taskgraph.eforest_graph import block_eforest

        plan, _ = analyzed(random_pivot_matrix(20, 0))
        out = render_forest(block_eforest(plan.bp), max_nodes=1000)
        # Every block appears exactly once.
        import re

        nums = re.findall(r"\b\d+\b", out)
        assert sorted(set(int(x) for x in nums)) == list(range(plan.bp.n_blocks))

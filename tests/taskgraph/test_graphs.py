"""S* and eforest task-graph construction tests (paper §4).

Includes a hand-built block pattern mirroring the paper's Figure 4: a 4x4
block matrix whose eforest has two independent children of a common target,
so the S* graph serializes two updates that the new graph runs concurrently.
"""

import numpy as np
import pytest

from repro.symbolic.supernodes import BlockPattern, SupernodePartition
from repro.taskgraph.eforest_graph import block_eforest, build_eforest_graph
from repro.taskgraph.sstar import build_sstar_graph
from repro.taskgraph.tasks import (
    Task,
    enumerate_tasks,
    factor_task,
    update_task,
)


def fig4_like_pattern() -> BlockPattern:
    """4 block columns; columns 0 and 1 are independent subtrees both
    updating column 3; column 2 also feeds 3.

    Stored blocks (column -> block rows):
      col0: {0, 3}          (L block (3,0))
      col1: {1, 3}          (L block (3,1))
      col2: {2, 3}          (L block (3,2))
      col3: {0, 1, 2, 3}    (U blocks (0,3), (1,3), (2,3))
    Eforest: parent(0)=parent(1)=parent(2)=3 (first upper nonzero of block
    rows 0..2 is column 3), 3 is a root.
    """
    part = SupernodePartition(starts=np.array([0, 1, 2, 3, 4]))
    blocks = [
        np.array([0, 3]),
        np.array([1, 3]),
        np.array([2, 3]),
        np.array([0, 1, 2, 3]),
    ]
    return BlockPattern(partition=part, blocks=blocks)


class TestTasks:
    def test_enumerate(self):
        bp = fig4_like_pattern()
        tasks = enumerate_tasks(bp)
        names = {str(t) for t in tasks}
        assert names == {
            "F(0)", "F(1)", "F(2)", "F(3)",
            "U(0,3)", "U(1,3)", "U(2,3)",
        }

    def test_update_requires_k_lt_j(self):
        with pytest.raises(ValueError):
            update_task(3, 3)

    def test_task_str_and_target(self):
        assert str(factor_task(2)) == "F(2)"
        assert str(update_task(1, 4)) == "U(1,4)"
        assert update_task(1, 4).target == 4
        assert factor_task(2).target == 2


class TestBlockEforest:
    def test_fig4_parents(self):
        parent = block_eforest(fig4_like_pattern())
        assert parent.tolist() == [3, 3, 3, -1]

    def test_no_lower_blocks_is_root(self):
        part = SupernodePartition(starts=np.array([0, 1, 2]))
        # col0 upper-only coupling into col1.
        bp = BlockPattern(
            partition=part, blocks=[np.array([0]), np.array([0, 1])]
        )
        assert block_eforest(bp).tolist() == [-1, -1]


class TestSStarGraph:
    def test_fig4_chain(self):
        bp = fig4_like_pattern()
        g = build_sstar_graph(bp)
        # Serial chain U(0,3) -> U(1,3) -> U(2,3) -> F(3).
        assert g.has_edge(update_task(0, 3), update_task(1, 3))
        assert g.has_edge(update_task(1, 3), update_task(2, 3))
        assert g.has_edge(update_task(2, 3), factor_task(3))
        assert g.has_edge(factor_task(0), update_task(0, 3))

    def test_edge_count_formula(self):
        # Per column with m sources: m factor->update + (m-1) chain + 1 to F.
        bp = fig4_like_pattern()
        g = build_sstar_graph(bp)
        assert g.n_edges == 3 + 2 + 1

    def test_acyclic(self):
        build_sstar_graph(fig4_like_pattern()).validate()


class TestEforestGraph:
    def test_fig4_parallel_updates(self):
        """The paper's Figure 4(c): independent-subtree updates are NOT
        serialized; each goes straight to F(3) (rule 5)."""
        bp = fig4_like_pattern()
        g = build_eforest_graph(bp)
        u0, u1, u2 = update_task(0, 3), update_task(1, 3), update_task(2, 3)
        f3 = factor_task(3)
        assert g.has_edge(u0, f3) and g.has_edge(u1, f3) and g.has_edge(u2, f3)
        assert not g.has_edge(u0, u1)
        assert not g.has_edge(u1, u2)
        assert not g.has_path(u0, u1)

    def test_fewer_constraints_than_sstar(self):
        bp = fig4_like_pattern()
        g_new = build_eforest_graph(bp)
        g_old = build_sstar_graph(bp)
        # Same tasks; new graph's longest chain is strictly shorter.
        assert g_new.n_tasks == g_old.n_tasks
        assert max(g_new.levels().values()) < max(g_old.levels().values())

    def test_is_refinement_of_sstar(self):
        """Every dependence the new graph keeps is implied by the S* graph
        (the new graph only removes false dependences, never invents)."""
        bp = fig4_like_pattern()
        assert build_eforest_graph(bp).is_refinement_of(build_sstar_graph(bp))

    def test_ancestor_chain_rule4(self):
        # Path forest 0 -> 1 -> 2, all updating column 3.
        part = SupernodePartition(starts=np.array([0, 1, 2, 3, 4]))
        bp = BlockPattern(
            partition=part,
            blocks=[
                np.array([0, 1]),       # L block (1,0) => parent(0)=1
                np.array([0, 1, 2]),    # L block (2,1) => parent(1)=2
                np.array([1, 2, 3]),    # L block (3,2) => parent(2)=3
                np.array([0, 1, 2, 3]),
            ],
        )
        parent = block_eforest(bp)
        assert parent.tolist() == [1, 2, 3, -1]
        g = build_eforest_graph(bp)
        assert g.has_edge(update_task(0, 3), update_task(1, 3))  # rule 4
        assert g.has_edge(update_task(1, 3), update_task(2, 3))  # rule 4
        assert g.has_edge(update_task(2, 3), factor_task(3))  # rule 5

    def test_skip_walk_over_missing_source(self):
        # 0 -> 1 -> 2 path, but only blocks (0,3) and (2,3) stored: the
        # chain from U(0,3) must skip the non-source 1 and hit U(2,3).
        part = SupernodePartition(starts=np.array([0, 1, 2, 3, 4]))
        bp = BlockPattern(
            partition=part,
            blocks=[
                np.array([0, 1]),        # lower (1,0): 0 has a child below
                np.array([0, 1, 2]),     # upper (0,1) => parent(0)=1
                np.array([1, 2, 3]),     # upper (1,2) => parent(1)=2
                np.array([0, 2, 3]),     # sources of col3: {0, 2} (not 1)
            ],
        )
        assert block_eforest(bp).tolist() == [1, 2, 3, -1]
        g = build_eforest_graph(bp)
        assert g.has_edge(update_task(0, 3), update_task(2, 3))

    def test_root_source_has_no_successor(self):
        # Column 0 has no lower blocks (root, no pivoting interplay): its
        # update into column 1 gates nothing.
        part = SupernodePartition(starts=np.array([0, 1, 2]))
        bp = BlockPattern(
            partition=part, blocks=[np.array([0]), np.array([0, 1])]
        )
        g = build_eforest_graph(bp)
        assert g.successors(update_task(0, 1)) == []

    def test_acyclic_on_analogs(self):
        from tests.conftest import analyzed
        from repro.sparse.generators import paper_matrix

        for name in ("sherman3", "orsreg1"):
            plan, _ = analyzed(paper_matrix(name, scale=0.1))
            plan.graph.validate()
            assert plan.graph.is_refinement_of(build_sstar_graph(plan.bp))

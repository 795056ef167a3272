"""Solve-phase task graph tests."""

import numpy as np
import pytest

from tests import conftest
from tests.conftest import random_pivot_matrix
from repro.numeric.costs import CostModel
from repro.parallel.machine import MachineModel
from repro.parallel.mapping import cyclic_mapping
from repro.parallel.simulate import simulate_schedule
from repro.serve import refactorize_with_plan
from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import BlockPattern, SupernodePartition
from repro.taskgraph.solve_graph import (
    backward_task,
    build_solve_graph,
    forward_task,
    level_schedule,
)


def simulate_solve(bp, machine, owner):
    return simulate_schedule(build_solve_graph(bp), bp, machine, owner)


def solve_task_flops(bp):
    model = CostModel(bp)
    return {
        t: model.flops(t)
        for k in range(bp.n_blocks)
        for t in (forward_task(k), backward_task(k))
    }


def analyzed(seed=0, n=35):
    return conftest.analyzed(random_pivot_matrix(n, seed))


class TestGraphStructure:
    def test_two_tasks_per_block(self):
        plan, _ = analyzed()
        g = build_solve_graph(plan.bp)
        assert g.n_tasks == 2 * plan.bp.n_blocks

    def test_forward_before_backward(self):
        plan, _ = analyzed(1)
        g = build_solve_graph(plan.bp)
        for k in range(plan.bp.n_blocks):
            assert g.has_edge(forward_task(k), backward_task(k))

    def test_forward_respects_lower_structure(self):
        plan, _ = analyzed(2)
        g = build_solve_graph(plan.bp)
        for i in range(plan.bp.n_blocks):
            col = plan.bp.col_blocks(i)
            for k in col[col > i]:
                assert g.has_edge(forward_task(i), forward_task(int(k)))

    def test_backward_respects_upper_structure(self):
        plan, _ = analyzed(3)
        g = build_solve_graph(plan.bp)
        for j in range(plan.bp.n_blocks):
            for i in plan.bp.col_blocks(j):
                i = int(i)
                if i < j:
                    assert g.has_edge(backward_task(j), backward_task(i))

    def test_acyclic(self):
        plan, _ = analyzed(4)
        build_solve_graph(plan.bp).validate()

    def test_flops_cover_all_tasks(self):
        plan, _ = analyzed(5)
        g = build_solve_graph(plan.bp)
        flops = solve_task_flops(plan.bp)
        assert set(flops) == set(g.tasks())
        assert all(f > 0 for f in flops.values())

    def test_flops_are_diagonal_solve_plus_row_gemvs(self):
        plan, _ = analyzed(5)
        bp = plan.bp
        w = np.diff(bp.partition.starts)
        flops = solve_task_flops(bp)
        for k in range(bp.n_blocks):
            row = [j for j in range(bp.n_blocks) if j != k and bp.has_block(k, j)]
            fs = w[k] ** 2 + sum(2 * w[k] * w[j] for j in row if j < k)
            bs = w[k] ** 2 + sum(2 * w[k] * w[j] for j in row if j > k)
            assert flops[forward_task(k)] == fs
            assert flops[backward_task(k)] == bs


class TestSolveSimulation:
    def test_p1_is_serial(self):
        plan, _ = analyzed(6)
        machine = MachineModel(n_procs=1)
        res = simulate_solve(plan.bp, machine, cyclic_mapping(plan.bp.n_blocks, 1))
        flops = solve_task_flops(plan.bp)
        widths = np.diff(plan.bp.partition.starts)
        total = sum(
            machine.compute_time(f, int(widths[t.k])) for t, f in flops.items()
        )
        assert res.makespan == pytest.approx(total)

    def test_parallel_helps(self):
        from repro.sparse.generators import paper_matrix

        plan, _ = conftest.analyzed(paper_matrix("sherman3", scale=0.15))
        r1 = simulate_solve(plan.bp, MachineModel(n_procs=1), cyclic_mapping(plan.bp.n_blocks, 1))
        r4 = simulate_solve(plan.bp, MachineModel(n_procs=4), cyclic_mapping(plan.bp.n_blocks, 4))
        assert r4.makespan < r1.makespan

    def test_bad_mapping(self):
        from repro.util.errors import SchedulingError

        plan, _ = analyzed(7)
        with pytest.raises(SchedulingError):
            simulate_solve(
                plan.bp, MachineModel(n_procs=2), np.zeros(plan.bp.n_blocks + 1, dtype=int)
            )


class TestEdgeCases:
    """Degenerate shapes: empty, single supernode, all-roots, one level."""

    def test_empty_structure(self):
        empty = SupernodePartition(starts=np.zeros(1, dtype=np.int64))
        sched = level_schedule(BlockPattern(empty, []))
        assert sched.n_blocks == 0
        assert sched.graph.n_tasks == 0
        assert all(len(lev) == 0 for lev in sched.fwd_levels)
        assert all(len(lev) == 0 for lev in sched.bwd_levels)

    def test_single_supernode(self):
        # A dense matrix amalgamates into one supernode: the solve is two
        # tasks joined by the phase edge, one level per phase.
        dense = np.ones((4, 4)) + 4.0 * np.eye(4)
        a = CSCMatrix(
            4,
            4,
            np.arange(0, 17, 4),
            np.tile(np.arange(4), 4),
            dense.T.ravel(),
        )
        plan, _ = conftest.analyzed(a)
        assert plan.bp.n_blocks == 1
        g = build_solve_graph(plan.bp)
        assert g.n_tasks == 2
        assert g.has_edge(forward_task(0), backward_task(0))
        sched = level_schedule(plan.bp)
        assert sched.n_fwd_levels == 1
        assert sched.n_bwd_levels == 1

    def test_diagonal_matrix_all_roots(self):
        # A diagonal matrix's eforest is all roots: no cross-block edges,
        # every solve task independent inside its phase.
        n = 8
        a = CSCMatrix(n, n, np.arange(n + 1), np.arange(n), 2.0 * np.ones(n))
        plan, _ = conftest.analyzed(a)
        g = build_solve_graph(plan.bp)
        nb = plan.bp.n_blocks
        # Only the FS(k) -> BS(k) phase edges survive.
        assert g.n_edges == nb
        for k in range(nb):
            assert g.has_edge(forward_task(k), backward_task(k))
        sched = level_schedule(plan.bp)
        assert sched.n_fwd_levels == 1
        assert sched.n_bwd_levels == 1
        x = refactorize_with_plan(plan, a).solve(np.arange(1.0, n + 1))
        assert np.allclose(x, np.arange(1.0, n + 1) / 2.0)

    def test_one_level_schedule_runs_any_order(self):
        # In a one-level phase every permutation of the level is valid:
        # no dependence joins two of its tasks, and the race checker finds
        # none missing.
        from repro.analysis import check_races, solve_footprints

        n = 6
        a = CSCMatrix(n, n, np.arange(n + 1), np.arange(n), np.ones(n))
        plan, _ = conftest.analyzed(a)
        sched = level_schedule(plan.bp)
        assert sched.n_fwd_levels == 1
        g = build_solve_graph(plan.bp)
        level = [forward_task(int(k)) for k in sched.fwd_levels[0]]
        assert not any(g.has_edge(u, v) for u in level for v in level)
        assert check_races(g, solve_footprints(plan.bp))[0] == []

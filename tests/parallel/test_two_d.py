"""The §6 2-D graph as the simulator prices it.

One graph (``build_2d_graph``), one pricing path
(``simulate_schedule`` + ``CostModel``): what is priced here is the same
task set the engines execute in ``test_two_d_exec.py``.
"""

import pytest

from tests import conftest
from tests.conftest import random_pivot_matrix
from repro.analysis.footprints import expected_2d_tasks
from repro.eval.pipeline import PAPER_AMALGAMATION
from repro.numeric.costs import CostModel
from repro.numeric.factor import LUFactorization
from repro.parallel.dispatch import run_engine
from repro.parallel.machine import MachineModel
from repro.parallel.mapping import GridMapping, cyclic_mapping
from repro.parallel.simulate import simulate_schedule
from repro.parallel.two_d import build_2d_graph
from repro.sparse.generators import paper_matrix
from repro.util.errors import SchedulingError


def analyzed(seed=0, n=40):
    # Paper-era amalgamation bounds: at the defaults a 40-column matrix is
    # two or three supernodes, too few for a grid to have anything to map.
    return conftest.analyzed(random_pivot_matrix(n, seed), **PAPER_AMALGAMATION)


def price_2d(plan, n_procs, graph=None):
    return simulate_schedule(
        graph if graph is not None else build_2d_graph(plan.bp),
        plan.bp,
        MachineModel(n_procs=n_procs),
        GridMapping.for_workers(n_procs),
    )


def grid(n_workers):
    m = GridMapping.for_workers(n_workers)
    return m.pr, m.pc


class TestGridShape:
    def test_square_counts(self):
        assert grid(4) == (2, 2)
        assert grid(16) == (4, 4)

    def test_non_square(self):
        assert grid(8) == (2, 4)
        assert grid(6) == (2, 3)

    def test_prime(self):
        assert grid(7) == (1, 7)

    def test_one(self):
        assert grid(1) == (1, 1)


class TestModelConstruction:
    def test_task_counts(self):
        plan, _ = analyzed()
        tasks = build_2d_graph(plan.bp).tasks()
        n_f = sum(1 for t in tasks if t.kind == "F")
        assert n_f == plan.bp.n_blocks
        # Every SL/SU corresponds to a stored off-diagonal block.
        n_sl = sum(1 for t in tasks if t.kind == "SL")
        n_su = sum(1 for t in tasks if t.kind == "SU")
        off_blocks = plan.bp.nnz_blocks() - plan.bp.n_blocks
        assert n_sl + n_su == off_blocks

    def test_acyclic(self):
        plan, _ = analyzed(1)
        g = build_2d_graph(plan.bp)
        assert len(g.topological_order()) == g.n_tasks

    def test_update_needs_both_scales(self):
        plan, _ = analyzed(2)
        g = build_2d_graph(plan.bp)
        ups = [t for t in g.tasks() if t.kind == "UP"]
        assert ups
        for t in ups:
            kinds = {p.kind for p in g.predecessors(t)}
            assert {"SL", "SU"} <= kinds

    def test_flops_positive(self):
        plan, _ = analyzed(3)
        model = CostModel(plan.bp)
        flops_2d = [model.flops(t) for t in build_2d_graph(plan.bp).tasks()]
        assert all(f >= 0 for f in flops_2d)
        total_1d = sum(model.flops(t) for t in plan.graph.tasks())
        # Same arithmetic, different granularity: totals agree within the
        # panel-vs-blocked LU bookkeeping differences.
        assert 0.4 * total_1d < sum(flops_2d) < 2.5 * total_1d


class TestSimulation:
    def test_p1_equals_total_work(self):
        plan, _ = analyzed(4)
        g = build_2d_graph(plan.bp)
        machine = MachineModel(n_procs=1)
        res = price_2d(plan, 1, g)
        model = CostModel(plan.bp)
        total = sum(
            machine.compute_time(model.flops(t), model.width(t)) for t in g.tasks()
        )
        assert res.makespan == pytest.approx(total)
        assert res.n_messages == 0

    def test_deterministic(self):
        plan, _ = analyzed(5)
        r1 = price_2d(plan, 4)
        r2 = price_2d(plan, 4)
        assert r1.makespan == r2.makespan

    def test_scales_with_procs(self):
        # A witness with enough blocks for a 2x4 grid to share: the nine
        # blocks of a 40-column random matrix scale by 0.4 % on one seed and
        # not at all on four of nine; this one reads 0.41.
        plan, _ = conftest.analyzed(paper_matrix("sherman3", scale=0.05))
        assert plan.bp.n_blocks > 9
        assert price_2d(plan, 8).makespan < 0.75 * price_2d(plan, 1).makespan

    def test_2d_wins_at_high_proc_counts(self):
        """The future-work motivation: 2-D ownership out-scales 1-D."""
        plan, _ = conftest.analyzed(paper_matrix("sherman3", scale=0.2))
        g2 = build_2d_graph(plan.bp)

        def gain_2d(p):
            t1 = simulate_schedule(
                plan.graph, plan.bp, MachineModel(n_procs=p), cyclic_mapping(plan.bp.n_blocks, p)
            ).makespan
            return 1.0 - price_2d(plan, p, g2).makespan / t1

        lo, hi = gain_2d(4), gain_2d(16)
        assert hi > lo
        assert hi > 0.0

    def test_grid_wider_than_machine_rejected(self):
        plan, _ = analyzed(7)
        with pytest.raises(SchedulingError):
            simulate_schedule(
                build_2d_graph(plan.bp), plan.bp, MachineModel(n_procs=4), GridMapping(2, 4)
            )


class TestPricedEqualsExecuted:
    @pytest.mark.parametrize("name", ["sherman3", "goodwin"])
    def test_same_task_set(self, name):
        plan, a_work = conftest.analyzed(paper_matrix(name, scale=0.06))
        g2 = build_2d_graph(plan.bp)
        assert set(g2.tasks()) == expected_2d_tasks(plan.bp)
        eng = LUFactorization(a_work, plan.bp)
        run_engine(eng, g2, "sequential")
        assert eng.done == set(g2.tasks())
        assert price_2d(plan, 4, g2).n_tasks == len(eng.done)

"""Numerical sufficiency of both dependence graphs.

The decisive test of §4: *any* topological order of either graph must
produce exactly the factors of the right-looking sequential order. We hammer
this with many random topological orders on matrices whose weak diagonals
force aggressive cross-block pivoting.
"""

import random

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix
from repro.numeric.factor import LUFactorization
from repro.numeric.solver import SolverOptions, SparseLUSolver
from repro.taskgraph.sstar import build_sstar_graph


def random_topological_order(graph, seed):
    rng = random.Random(seed)
    indeg = {t: graph.in_degree(t) for t in graph.tasks()}
    ready = sorted(t for t, d in indeg.items() if d == 0)
    out = []
    while ready:
        t = ready.pop(rng.randrange(len(ready)))
        out.append(t)
        for s in graph.successors(t):
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    assert len(out) == graph.n_tasks
    return out


def factors_for_order(solver, order):
    eng = LUFactorization(solver.a_work, solver.bp, check_dependencies=False)
    eng.run_order(order)
    res = eng.extract()
    return res.l_factor.to_dense(), res.u_factor.to_dense(), res.orig_at


@pytest.mark.parametrize("seed", range(6))
def test_eforest_graph_random_orders(seed):
    a = random_pivot_matrix(35, seed)
    solver = SparseLUSolver(a).analyze()
    ref_eng = LUFactorization(solver.a_work, solver.bp)
    ref_eng.factor_sequential()
    ref = ref_eng.extract()
    for trial in range(3):
        order = random_topological_order(solver.graph, 100 * seed + trial)
        l, u, orig = factors_for_order(solver, order)
        assert np.allclose(l, ref.l_factor.to_dense()), f"L differs (trial {trial})"
        assert np.allclose(u, ref.u_factor.to_dense()), f"U differs (trial {trial})"
        assert np.array_equal(orig, ref.orig_at)


@pytest.mark.parametrize("seed", range(4))
def test_sstar_graph_random_orders(seed):
    a = random_pivot_matrix(30, seed + 50)
    solver = SparseLUSolver(a, SolverOptions(task_graph="sstar")).analyze()
    g = build_sstar_graph(solver.bp)
    ref_eng = LUFactorization(solver.a_work, solver.bp)
    ref_eng.factor_sequential()
    ref = ref_eng.extract()
    for trial in range(2):
        order = random_topological_order(g, 7 * seed + trial)
        l, u, orig = factors_for_order(solver, order)
        assert np.allclose(l, ref.l_factor.to_dense())
        assert np.allclose(u, ref.u_factor.to_dense())


@pytest.mark.parametrize("postorder", [True, False])
@pytest.mark.parametrize("amalgamation", [True, False])
def test_random_orders_across_pipeline_options(postorder, amalgamation):
    a = random_pivot_matrix(30, 7)
    solver = SparseLUSolver(
        a, SolverOptions(postorder=postorder, amalgamation=amalgamation)
    ).analyze()
    ref_eng = LUFactorization(solver.a_work, solver.bp)
    ref_eng.factor_sequential()
    ref_l = ref_eng.extract().l_factor.to_dense()
    order = random_topological_order(solver.graph, 42)
    l, _, _ = factors_for_order(solver, order)
    assert np.allclose(l, ref_l)


def test_paper_analog_random_orders():
    from repro.sparse.generators import paper_matrix

    a = paper_matrix("sherman5", scale=0.12)
    solver = SparseLUSolver(a).analyze()
    ref_eng = LUFactorization(solver.a_work, solver.bp)
    ref_eng.factor_sequential()
    ref_l = ref_eng.extract().l_factor.to_dense()
    for trial in range(2):
        order = random_topological_order(solver.graph, trial)
        l, _, _ = factors_for_order(solver, order)
        assert np.allclose(l, ref_l)


def test_updates_last_order_passes_the_dependency_check():
    """A valid schedule that runs every ``U`` as late as the graph allows.

    ``U(i, k)`` from a block outside ``k``'s eforest subtree writes only
    rows above ``k``'s tree and precedes nothing; the checked engine must
    not demand it before ``F(k)`` (it raised ``F(9) ran before U(7,9)``
    on sherman3 @ 0.1).
    """
    from repro.sparse.generators import paper_matrix

    solver = SparseLUSolver(paper_matrix("sherman3", scale=0.1)).analyze()
    g = solver.graph
    indeg = {t: g.in_degree(t) for t in g.tasks()}
    ready = [t for t, d in indeg.items() if d == 0]
    order = []
    while ready:
        ready.sort(key=lambda t: (t.kind == "U", t))
        t = ready.pop(0)
        order.append(t)
        for s in g.successors(t):
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    assert len(order) == g.n_tasks
    ref_eng = LUFactorization(solver.a_work, solver.bp)
    ref_eng.factor_sequential()
    ref = ref_eng.extract()
    eng = LUFactorization(solver.a_work, solver.bp, check_dependencies=True)
    eng.run_order(order)
    res = eng.extract()
    assert np.array_equal(res.l_factor.to_dense(), ref.l_factor.to_dense())
    assert np.array_equal(res.u_factor.to_dense(), ref.u_factor.to_dense())
    assert np.array_equal(res.orig_at, ref.orig_at)

"""The cut of the block eforest both parallel engines release.

Units are maximal subtrees plus single top steps (``release_plan``). The
release loop is sound only if the units partition the steps, a subtree
unit holds every block-eforest descendant of its members, every eforest
edge between two units is an edge of the unit graph, and that graph is
acyclic — on every analog, postordered or not (without postordering a
subtree need not be a contiguous block range).
"""

from collections import Counter

import pytest

from repro.numeric.factor import LUFactorization
from repro.numeric.solver import SolverOptions
from repro.parallel.threads import release_plan, threaded_factorize
from repro.serve import build_plan
from repro.serve.refactor import permuted_values
from repro.sparse.generators import PAPER_MATRICES, paper_matrix
from repro.taskgraph.eforest_graph import block_eforest


def analog(name):
    return paper_matrix(name, scale=0.05 if name == "goodwin" else 0.12)


@pytest.fixture(scope="module", params=[True, False], ids=["postorder", "plain"])
def plans(request):
    opts = SolverOptions(postorder=request.param)
    return {name: build_plan(analog(name), opts) for name in sorted(PAPER_MATRICES)}


@pytest.mark.parametrize("n_workers", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(PAPER_MATRICES))
def test_cut_is_a_sound_unit_graph(plans, name, n_workers):
    bp = plans[name].bp
    cut = release_plan(bp, n_workers)
    parent = block_eforest(bp).tolist()
    children = [[] for _ in parent]
    for k, p in enumerate(parent):
        if p >= 0:
            children[p].append(k)
    steps = [k for unit in cut.units for k in unit]
    assert sorted(steps) == list(range(bp.n_blocks))
    unit_of = {k: u for u, unit in enumerate(cut.units) for k in unit}
    for u, unit in enumerate(cut.units):
        assert unit == sorted(unit)
        closed = all(unit_of[c] == u for k in unit for c in children[k])
        # A unit is a subtree (closed under descendants) or one top step.
        assert closed or len(unit) == 1
        heads = [k for k in unit if parent[k] < 0 or unit_of[parent[k]] != u]
        assert len(heads) == 1
        up = parent[heads[0]]
        if closed and up >= 0:  # maximal: a subtree hangs under a top step
            assert len(cut.units[unit_of[up]]) == 1
    for k, p in enumerate(parent):
        if p >= 0 and unit_of[k] != unit_of[p]:
            assert cut.successors[unit_of[k]] == [unit_of[p]]
    n_preds = Counter(s for succ in cut.successors for s in succ)
    ready = [u for u in range(len(cut.units)) if not n_preds[u]]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for s in cut.successors[u]:
            n_preds[s] -= 1
            if n_preds[s] == 0:
                ready.append(s)
    assert seen == len(cut.units)  # acyclic: Kahn's pass releases every unit
    assert 0.0 <= cut.subtree_share <= 1.0


def test_cut_is_computed_once_per_worker_count(plans):
    bp = plans["sherman3"].bp
    assert release_plan(bp, 2) is release_plan(bp, 2)
    assert len(release_plan(bp, 2).units) < bp.n_blocks
    with pytest.raises(ValueError, match="at least one worker"):
        release_plan(bp, 0)


def test_threaded_unit_bodies_never_overlap(plans):
    plan = plans["sherman3"]
    a_work, _ = permuted_values(plan, analog("sherman3"))
    eng = LUFactorization(a_work, plan.bp, layout=plan.layout)
    cut = release_plan(plan.bp, 4)
    unit_of = {k: u for u, unit in enumerate(cut.units) for k in unit}
    step, entered, active, overlap = eng.step, [], [0], []

    def counted(k):
        active[0] += 1
        overlap.append(active[0])
        entered.append(k)
        try:
            step(k)
        finally:
            active[0] -= 1

    eng.step = counted
    threaded_factorize(eng, n_threads=4)
    assert max(overlap) == 1
    assert sorted(entered) == list(range(plan.bp.n_blocks))  # each step once
    # A unit's steps run back to back, in ascending order.
    runs = [[]]
    for k in entered:
        if runs[-1] and unit_of[runs[-1][-1]] != unit_of[k]:
            runs.append([])
        runs[-1].append(k)
    assert sorted(runs) == sorted(cut.units)

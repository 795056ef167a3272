"""Block steps: the unit the sequential, threaded and proc engines run.

A step is ``F(k)`` followed by every ``U(k, j)``; per target it runs the task
body on the task's operands, so a run in steps must leave the panel store in
the bytes a run in tasks leaves — through every dispatch, with the LazyS+
counters and the task count of the ``factorize`` span unchanged.
"""

import numpy as np
import pytest

from repro.numeric.factor import LUFactorization
from repro.numeric.solver import SolverOptions, SparseLUSolver
from repro.obs.trace import Tracer
from repro.parallel.dispatch import ENGINES
from repro.parallel.threads import threaded_factorize
from repro.serve import build_plan, refactorize_with_plan
from repro.sparse.generators import paper_matrix
from repro.taskgraph.tasks import count_tasks, enumerate_tasks, factor_task
from repro.util.errors import SchedulingError


@pytest.fixture(scope="module", params=[("sherman3", 0.1), ("goodwin", 0.05)])
def analyzed(request):
    name, scale = request.param
    return SparseLUSolver(paper_matrix(name, scale=scale), SolverOptions()).analyze()


def fresh(s, **kw):
    return LUFactorization(s.a_work, s.bp, layout=s.plan().layout, **kw)


def same_store(x, y):
    return (
        x.data.values.tobytes() == y.data.values.tobytes()
        and x.data.pivot_ids.tobytes() == y.data.pivot_ids.tobytes()
        and np.array_equal(x.orig_at, y.orig_at)
    )


def test_steps_leave_the_bytes_tasks_leave(analyzed):
    steps, tasks = fresh(analyzed), fresh(analyzed)
    steps.factor_sequential()
    tasks.run_order(enumerate_tasks(analyzed.bp))
    assert same_store(steps, tasks)
    assert steps.lazy_stats == tasks.lazy_stats
    assert steps.n_tasks == tasks.n_tasks == count_tasks(analyzed.bp)
    assert not steps.done  # no per-task bookkeeping on the step path


def test_threaded_lazy_stats_are_exact(analyzed):
    seq = fresh(analyzed)
    seq.factor_sequential()
    for graph in (None, analyzed.graph):  # steps, then tasks
        thr = fresh(analyzed)
        threaded_factorize(thr, graph, n_threads=4)
        assert same_store(thr, seq)
        assert thr.lazy_stats == seq.lazy_stats
        assert thr.n_tasks == seq.n_tasks


def test_checked_runs_see_every_task(analyzed):
    eng = fresh(analyzed, check_dependencies=True)
    eng.factor_sequential()
    assert len(eng.done) == eng.n_tasks == count_tasks(analyzed.bp)
    ref = fresh(analyzed)
    ref.factor_sequential()
    assert same_store(eng, ref)


def test_a_step_runs_once():
    s = SparseLUSolver(paper_matrix("sherman3", scale=0.05)).analyze()
    eng = fresh(s)
    eng.step(0)
    with pytest.raises(SchedulingError):
        eng.step(0)
    with pytest.raises(SchedulingError):
        eng.run_task(factor_task(0))


def test_every_dispatch_gives_the_same_factors_and_counts(monkeypatch):
    """The benchmark's invariant, through ``refactorize_with_plan``."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    a = paper_matrix("sherman3", scale=0.1)
    plan = build_plan(a)
    runs = {}
    for engine in ENGINES:
        tr = Tracer()
        fact = refactorize_with_plan(plan, a, engine=engine, n_workers=2, tracer=tr)
        runs[engine] = (fact.result, tr.find("factorize").attrs)
    ref, ref_attrs = runs["sequential"]
    assert ref_attrs["n_tasks"] == count_tasks(plan.bp)
    for engine, (res, attrs) in runs.items():
        for got, want in ((res.l_factor, ref.l_factor), (res.u_factor, ref.u_factor)):
            assert np.array_equal(got.indptr, want.indptr), engine
            assert np.array_equal(got.indices, want.indices), engine
            assert np.array_equal(got.data, want.data), engine
        assert np.array_equal(res.orig_at, ref.orig_at), engine
        counts = ("n_tasks", "n_updates_run", "n_updates_skipped", "flops_spent", "flops_saved")
        assert {c: attrs[c] for c in counts} == {c: ref_attrs[c] for c in counts}, engine

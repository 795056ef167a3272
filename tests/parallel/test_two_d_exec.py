"""Executed 2-D block-mapped factorization: correctness, determinism,
analysis coverage, and observability.

The promises under test (docs/parallel.md):

* the 2-D graph's canonical replay matches the sequential 1-D factors to
  1e-12 (relative) on random matrices and every paper analog;
* *within* the 2-D mode factors are bitwise identical across any
  admissible schedule — random topological interleavings, replayed
  sequentially (the only way a 2-D graph executes), all reproduce the
  canonical replay exactly (the fixed per-column block-update summation
  order pinned by the chain edges);
* the static analyzer covers 2-D schedules: zero findings on well-formed
  graphs, and deleting a (non-redundant) dependence edge is detected —
  and a sanitized replay flags the order that breaks it;
* the proc engine reports its workers (span attribute), and no grid.
"""

import numpy as np
import pytest

from tests import conftest
from tests.conftest import random_pivot_matrix
from repro.analysis.footprints import expected_2d_tasks, two_d_footprints
from repro.analysis.races import check_liveness, check_races
from repro.analysis.sanitizer import build_sanitizer
from repro.numeric.factor import LUFactorization
from repro.parallel.dispatch import replay_order, run_engine
from repro.parallel.procengine import proc_factorize
from repro.parallel.two_d import build_2d_graph, canonical_2d_order, is_2d_graph
from repro.sparse.generators import paper_matrix
from repro.taskgraph.tasks import count_tasks

PAPER_ANALOGS = (
    "sherman3", "sherman5", "lnsp3937", "lns3937", "orsreg1", "saylr4",
    "goodwin",
)


def analyzed(seed=0, n=40):
    return conftest.analyzed(random_pivot_matrix(n, seed))


def sequential_reference(plan, a_work):
    ref = LUFactorization(a_work, plan.bp)
    ref.factor_sequential()
    return ref.extract()


def replay_2d(plan, a_work, order=None, sanitizer=None):
    g2 = build_2d_graph(plan.bp)
    eng = LUFactorization(a_work, plan.bp)
    if order is None:
        order = canonical_2d_order(g2)
    replay_order(eng, order, g2, fill=plan.fill, sanitizer=sanitizer)
    return eng.extract()


def assert_bitwise(res, ref):
    assert np.array_equal(res.l_factor.to_dense(), ref.l_factor.to_dense())
    assert np.array_equal(res.u_factor.to_dense(), ref.u_factor.to_dense())
    assert np.array_equal(res.orig_at, ref.orig_at)


def assert_close(res, ref, tol=1e-12):
    """Relative agreement: the two modes sum block updates through
    differently-shaped GEMM calls, so only closeness is promised."""
    l_ref = ref.l_factor.to_dense()
    u_ref = ref.u_factor.to_dense()
    denom = max(1.0, np.max(np.abs(l_ref)), np.max(np.abs(u_ref)))
    assert np.max(np.abs(res.l_factor.to_dense() - l_ref)) <= tol * denom
    assert np.max(np.abs(res.u_factor.to_dense() - u_ref)) <= tol * denom
    assert np.array_equal(res.orig_at, ref.orig_at)


def random_topological_order(graph, seed):
    """A uniformly-perturbed admissible schedule (seeded Kahn)."""
    rng = np.random.default_rng(seed)
    indeg = {t: 0 for t in graph.tasks()}
    for _, dst in graph.edges():
        indeg[dst] += 1
    ready = sorted(t for t, d in indeg.items() if d == 0)
    order = []
    while ready:
        t = ready.pop(int(rng.integers(len(ready))))
        order.append(t)
        for succ in graph.successors(t):
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
    assert len(order) == graph.n_tasks
    return order


class TestMatchesSequential:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_matrices(self, seed):
        plan, a_work = analyzed(seed)
        assert_close(replay_2d(plan, a_work), sequential_reference(plan, a_work))

    @pytest.mark.parametrize("name", PAPER_ANALOGS)
    def test_paper_analogs(self, name):
        plan, a_work = conftest.analyzed(paper_matrix(name, scale=0.06))
        assert_close(replay_2d(plan, a_work), sequential_reference(plan, a_work))


class TestBitwiseWithin2D:
    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_random_interleavings(self, seed):
        plan, a_work = analyzed(seed)
        g2 = build_2d_graph(plan.bp)
        assert is_2d_graph(g2)
        ref = replay_2d(plan, a_work)
        for i in range(4):
            order = random_topological_order(g2, 100 * seed + i)
            assert_bitwise(replay_2d(plan, a_work, order=order), ref)

    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_threaded_engine_refuses_2d_graph(self, n_threads):
        # The 2-D graph executes as a sequential replay only: the threaded
        # engine runs block steps and refuses it before touching a panel.
        plan, a_work = analyzed(1)
        eng = LUFactorization(a_work, plan.bp)
        with pytest.raises(ValueError, match="2-D graph"):
            run_engine(eng, build_2d_graph(plan.bp), "threaded", n_workers=n_threads)
        assert not eng.panel_facts and eng.n_tasks == 0

    @pytest.mark.parametrize("seed,n_workers", [(0, 2), (2, 4), (3, 2)])
    def test_proc_engine_refuses_2d_graph(self, seed, n_workers):
        # The proc engine runs block steps only: a 2-D graph is refused
        # before the pool binds (no arena, no fork).
        from repro.parallel.procengine import ProcPool

        plan, a_work = analyzed(seed)
        eng = LUFactorization(a_work, plan.bp)
        with ProcPool(n_workers) as pool:
            with pytest.raises(ValueError, match="2-D graph"):
                run_engine(eng, build_2d_graph(plan.bp), "proc", pool=pool)
            assert pool._state is None
        assert eng.n_tasks == 0

    def test_dep_checked_interleavings(self):
        """A sanitized replay accepts an admissible schedule: zero findings."""
        plan, a_work = analyzed(5)
        g2 = build_2d_graph(plan.bp)
        ref = replay_2d(plan, a_work)
        order = random_topological_order(g2, 7)
        san = build_sanitizer(plan.bp, plan.fill)
        assert_bitwise(replay_2d(plan, a_work, order=order, sanitizer=san), ref)
        assert san.findings == [], [str(f) for f in san.findings]
        assert san.n_tasks == g2.n_tasks


class TestAnalyzer2D:
    @pytest.mark.parametrize("seed", range(4))
    def test_zero_findings(self, seed):
        plan, a_work = analyzed(seed)
        g2 = build_2d_graph(plan.bp)
        fps = two_d_footprints(plan.bp, plan.fill)
        races, _ = check_races(g2, fps)
        assert races == []
        assert check_liveness(g2, expected_2d_tasks(plan.bp)) == []

    def test_edge_deletion_detected_or_redundant(self):
        """Mutation coverage: every dependence edge between *conflicting*
        tasks is either transitively implied by the rest of the graph or
        its deletion produces a race finding — no silently droppable
        ordering constraints. (Edges into pure-read tasks, e.g.
        SL -> UP, carry no shared-memory conflict: SL only memoizes an
        engine-private row mask, so the race model rightly ignores them.)
        """
        plan, a_work = analyzed(3)
        g2 = build_2d_graph(plan.bp)
        fps = two_d_footprints(plan.bp, plan.fill)
        detected = 0
        for u, v in list(g2.edges()):
            g2.remove_edge(u, v)
            races, _ = check_races(g2, fps)
            if races:
                detected += 1
            elif _conflicts(fps[u], fps[v]):
                assert _has_path(g2, u, v), (
                    f"deleting {u} -> {v} went undetected"
                )
            g2.add_edge(u, v)
        assert detected > 0
        races, _ = check_races(g2, fps)  # restored graph is clean again
        assert races == []

    def test_engine_detects_missing_dependence(self):
        """A sanitized replay flags a schedule that violates an edge (the
        dynamic complement of the static finding)."""
        plan, a_work = analyzed(2)
        g2 = build_2d_graph(plan.bp)
        order = canonical_2d_order(g2)
        su = next(t for t in order if t.kind == "SU")
        f = next(t for t in order if t.kind == "F" and t.k == su.k)
        bad = [su if t == f else f if t == su else t for t in order]
        san = build_sanitizer(plan.bp, plan.fill)
        eng = LUFactorization(a_work, plan.bp)
        replay_order(eng, bad, g2, sanitizer=san)
        hb = [x for x in san.findings if x.check == "sanitizer.missing_happens_before"]
        assert hb and hb[0].tasks[:2] == (str(su), str(f))

    def test_analyze_plan_covers_2d(self):
        from repro.analysis import analyze_plan
        from repro.serve.plan import build_plan

        plan = build_plan(random_pivot_matrix(40, 6))
        report = analyze_plan(plan, name="m")
        sub = report.subject("m/factor-graph-2d")
        assert sub.findings == []
        assert sub.stats["n_tasks"] == build_2d_graph(plan.bp).n_tasks


class TestObservability:
    def test_proc_span_reports_workers_and_no_grid(self):
        # A proc run reports its workers and tasks; there is no grid
        # placement to report (no ``mapping`` attribute, no
        # ``factor.grid_shape`` gauge).
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        plan, a_work = analyzed(7)
        reg = MetricsRegistry()
        tr = Tracer()
        eng = LUFactorization(a_work, plan.bp)
        proc_factorize(eng, 2, metrics=reg, tracer=tr)
        span = next(
            sp for root in tr.roots for sp in root.walk()
            if sp.name == "engine.proc"
        )
        assert span.attrs["n_workers"] == 2
        assert "mapping" not in span.attrs
        assert reg.get("engine.tasks").value == count_tasks(plan.bp)
        assert reg.get("factor.grid_shape") is None

    def test_proc_span_counts_units(self):
        # A 1-D run sends one dispatch and gets one reply per unit of its cut.
        from repro.parallel.threads import release_plan

        from repro.obs.trace import Tracer

        plan, a_work = analyzed(8)
        tr = Tracer()
        eng = LUFactorization(a_work, plan.bp)
        proc_factorize(eng, 2, tracer=tr)
        span = next(
            sp for root in tr.roots for sp in root.walk()
            if sp.name == "engine.proc"
        )
        assert "mapping" not in span.attrs
        n_units = len(release_plan(plan.bp, 2).units)
        assert span.attrs["n_messages"] == 2 * n_units
        assert span.attrs["n_units"] == n_units
        assert span.attrs["makespan"] > 0


def _conflicts(fu, fv) -> bool:
    """Whether two footprints have a write/access overlap in any region."""
    for region in fu.regions() & fv.regions():
        if np.intersect1d(fu.written(region), fv.accessed(region)).size:
            return True
        if np.intersect1d(fv.written(region), fu.accessed(region)).size:
            return True
    return False


def _has_path(graph, src, dst) -> bool:
    stack = [src]
    seen = {src}
    while stack:
        t = stack.pop()
        if t == dst:
            return True
        for succ in graph.successors(t):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return False

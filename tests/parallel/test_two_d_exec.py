"""Executed 2-D block-mapped factorization: correctness, determinism,
analysis coverage, and observability.

The promises under test (docs/parallel.md):

* the 2-D graph's canonical replay matches the sequential 1-D factors to
  1e-12 (relative) on random matrices and every paper analog;
* *within* the 2-D mode factors are bitwise identical across any
  admissible schedule and engine — random topological interleavings, the
  thread pool, and the multi-process engine all reproduce the
  canonical replay exactly (the fixed per-column block-update summation
  order pinned by the chain edges);
* the static analyzer covers 2-D schedules: zero findings on well-formed
  graphs, and deleting a (non-redundant) dependence edge is detected;
* the proc engine reports its mapping (span attribute + grid gauge).
"""

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix
from repro.analysis.footprints import expected_2d_tasks, two_d_footprints
from repro.analysis.races import check_liveness, check_races
from repro.numeric.factor import LUFactorization
from repro.numeric.solver import SparseLUSolver
from repro.parallel.procengine import proc_factorize
from repro.parallel.threads import threaded_factorize
from repro.parallel.two_d import build_2d_graph, canonical_2d_order, is_2d_graph
from repro.sparse.generators import paper_matrix
from repro.util.errors import SchedulingError

PAPER_ANALOGS = (
    "sherman3", "sherman5", "lnsp3937", "lns3937", "orsreg1", "saylr4",
    "goodwin",
)


def analyzed(seed=0, n=40):
    return SparseLUSolver(random_pivot_matrix(n, seed)).analyze()


def sequential_reference(s):
    ref = LUFactorization(s.a_work, s.bp)
    ref.factor_sequential()
    return ref.extract()


def replay_2d(s, order=None, **engine_opts):
    eng = LUFactorization(s.a_work, s.bp, **engine_opts)
    for task in order if order is not None else canonical_2d_order(
        build_2d_graph(s.bp)
    ):
        eng.run_task(task)
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
        s = analyzed(seed)
        assert_close(replay_2d(s), sequential_reference(s))

    @pytest.mark.parametrize("name", PAPER_ANALOGS)
    def test_paper_analogs(self, name):
        s = SparseLUSolver(paper_matrix(name, scale=0.06)).analyze()
        assert_close(replay_2d(s), sequential_reference(s))


class TestBitwiseWithin2D:
    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_random_interleavings(self, seed):
        s = analyzed(seed)
        g2 = build_2d_graph(s.bp)
        assert is_2d_graph(g2)
        ref = replay_2d(s)
        for i in range(4):
            order = random_topological_order(g2, 100 * seed + i)
            assert_bitwise(replay_2d(s, order=order), ref)

    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_threaded_engine(self, n_threads):
        s = analyzed(1)
        g2 = build_2d_graph(s.bp)
        ref = replay_2d(s)
        eng = LUFactorization(s.a_work, s.bp)
        threaded_factorize(eng, g2, n_threads=n_threads)
        assert_bitwise(eng.extract(), ref)

    @pytest.mark.parametrize(
        "seed,grid,n_workers", [(0, None, 2), (2, (2, 2), 4), (3, (1, 2), 2)]
    )
    def test_proc_engine(self, seed, grid, n_workers):
        # ``grid`` is the pr x pc placement these cases once pinned; the
        # proc engine now runs each released task on whichever worker is
        # free, so only the worker count reaches the run.
        s = analyzed(seed)
        g2 = build_2d_graph(s.bp)
        ref = replay_2d(s)
        eng = LUFactorization(s.a_work, s.bp)
        stats = proc_factorize(eng, g2, n_workers)
        assert_bitwise(eng.extract(), ref)
        assert stats.n_tasks == g2.n_tasks
        assert sum(stats.per_rank_units) == g2.n_tasks

    def test_dep_checked_interleavings(self):
        """check_dependencies engines accept every admissible schedule."""
        s = analyzed(5)
        g2 = build_2d_graph(s.bp)
        ref = replay_2d(s)
        order = random_topological_order(g2, 7)
        assert_bitwise(
            replay_2d(s, order=order, check_dependencies=True), ref
        )


class TestAnalyzer2D:
    @pytest.mark.parametrize("seed", range(4))
    def test_zero_findings(self, seed):
        s = analyzed(seed)
        g2 = build_2d_graph(s.bp)
        fps = two_d_footprints(s.bp, s.fill)
        races, _ = check_races(g2, fps)
        assert races == []
        assert check_liveness(g2, expected_2d_tasks(s.bp)) == []

    def test_edge_deletion_detected_or_redundant(self):
        """Mutation coverage: every dependence edge between *conflicting*
        tasks is either transitively implied by the rest of the graph or
        its deletion produces a race finding — no silently droppable
        ordering constraints. (Edges into pure-read tasks, e.g.
        SL -> UP, carry no shared-memory conflict: SL only memoizes an
        engine-private row mask, so the race model rightly ignores them.)
        """
        s = analyzed(3)
        g2 = build_2d_graph(s.bp)
        fps = two_d_footprints(s.bp, s.fill)
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
        """The dep-checked engine refuses a schedule that violates the
        deleted edge (the dynamic complement of the static finding)."""
        s = analyzed(2)
        g2 = build_2d_graph(s.bp)
        order = canonical_2d_order(g2)
        su = next(t for t in order if t.kind == "SU")
        f = next(t for t in order if t.kind == "F" and t.k == su.k)
        bad = [su if t == f else f if t == su else t for t in order]
        eng = LUFactorization(s.a_work, s.bp, check_dependencies=True)
        with pytest.raises(SchedulingError):
            for task in bad:
                eng.run_task(task)

    def test_analyze_plan_covers_2d(self):
        from repro.analysis import analyze_plan
        from repro.serve.plan import build_plan

        plan = build_plan(random_pivot_matrix(40, 6))
        report = analyze_plan(plan, name="m")
        sub = report.subject("m/factor-graph-2d")
        assert sub.findings == []
        assert sub.stats["n_tasks"] == build_2d_graph(plan.bp).n_tasks


class TestObservability:
    def test_proc_span_mapping_and_grid_gauge(self):
        # A 2-D run reports its workers and tasks; there is no grid
        # placement left to report (no ``mapping`` attribute, no
        # ``factor.grid_shape`` gauge).
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        s = analyzed(7)
        g2 = build_2d_graph(s.bp)
        reg = MetricsRegistry()
        tr = Tracer()
        eng = LUFactorization(s.a_work, s.bp)
        proc_factorize(eng, g2, 2, metrics=reg, tracer=tr)
        span = next(
            sp for root in tr.roots for sp in root.walk()
            if sp.name == "engine.proc"
        )
        assert span.attrs["n_workers"] == 2
        assert "mapping" not in span.attrs
        assert reg.get("engine.tasks").value == g2.n_tasks
        assert reg.get("factor.grid_shape") is None

    def test_proc_span_1d_mapping_label(self):
        # A 1-D run sends one dispatch and gets one reply per block step.
        from repro.obs.trace import Tracer

        s = analyzed(8)
        tr = Tracer()
        eng = LUFactorization(s.a_work, s.bp)
        proc_factorize(eng, None, 2, tracer=tr)
        span = next(
            sp for root in tr.roots for sp in root.walk()
            if sp.name == "engine.proc"
        )
        assert "mapping" not in span.attrs
        assert span.attrs["n_messages"] == 2 * s.bp.n_blocks
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

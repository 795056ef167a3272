"""Plan-reuse correctness: the serving subsystem's core guarantees.

Two pinned properties:

1. *Equivalence* — ``refactorize_with_plan(plan, new_values)`` produces
   factors **bitwise identical** (structure and values) to a fresh
   ``lu()`` of the same matrix, across many random value assignments on
   fixed patterns — including values that zero out diagonal entries, so
   deferred pivoting genuinely engages. This is Theorem 3 in executable
   form: the static analysis is a function of the pattern alone.
2. *Warm path purity* — a refactorization against a cached plan opens no
   symbolic or task-graph span: the symbolic phase is skipped entirely,
   not merely accelerated.
3. *One request path* — every entry point (``lu``, ``lu(plan=)``,
   ``LUHandle.refactor``, ``refactorize_with_plan``, ``SolverService``)
   gives the same bits under the same three root span names (the
   service's sit under its ``service.batch`` span), including with
   ``REPRO_SANITIZE=1``; ``lu`` opens the same span tree as
   ``build_plan`` + ``refactorize_with_plan`` + ``solve``.
"""

import numpy as np
import pytest

from repro.api import lu
from repro.numeric.solver import SolverOptions
from repro.obs.trace import Tracer
from repro.serve import PlanCache, SolverService, build_plan, refactorize_with_plan
from repro.serve.plan import SymbolicPlan
from repro.sparse.generators import random_sparse
from repro.util.errors import PlanMismatchError
from tests.conftest import random_pivot_matrix

#: Span names of the symbolic/task-graph pipeline; none of these may
#: appear under a warm refactorization.
SYMBOLIC_SPANS = frozenset(
    {
        "analyze",
        "transversal",
        "ordering",
        "static_fill",
        "postorder",
        "supernodes",
        "task_graph",
        "simulate_schedule",
    }
)


def _assert_same_factors(fresh_result, warm_result):
    for name in ("l_factor", "u_factor"):
        f = getattr(fresh_result, name)
        w = getattr(warm_result, name)
        assert np.array_equal(f.indptr, w.indptr), f"{name} indptr differs"
        assert np.array_equal(f.indices, w.indices), f"{name} indices differs"
        assert np.array_equal(f.data, w.data), f"{name} values differ"
    assert np.array_equal(fresh_result.orig_at, warm_result.orig_at)


def _random_values(a, rng, zero_diag_count=0):
    """New values on ``a``'s pattern; optionally zero some diagonal entries."""
    vals = rng.standard_normal(a.nnz) + np.sign(a.data) * 0.5
    if zero_diag_count:
        diag_positions = []
        for j in range(a.n_cols):
            lo, hi = int(a.indptr[j]), int(a.indptr[j + 1])
            for p in range(lo, hi):
                if a.indices[p] == j:
                    diag_positions.append(p)
        chosen = rng.choice(
            len(diag_positions), size=zero_diag_count, replace=False
        )
        for c in chosen:
            vals[diag_positions[int(c)]] = 0.0
    return a.with_values(vals)


class TestRefactorEquivalence:
    @pytest.mark.parametrize("pattern_seed", [0, 1])
    def test_twenty_random_assignments_bitwise_identical(self, pattern_seed):
        a = random_pivot_matrix(35, pattern_seed)
        plan = build_plan(a)
        rng = np.random.default_rng(100 + pattern_seed)
        b = np.arange(1.0, 36.0)
        for trial in range(10):
            a_new = _random_values(a, rng)
            fresh = lu(a_new)
            warm = refactorize_with_plan(plan, a_new)
            _assert_same_factors(fresh.solver.result, warm.result)
            x_fresh = fresh.solve(b)
            x_warm = warm.solve(b)
            assert np.array_equal(x_fresh, x_warm), f"trial {trial}"
            assert warm.residual_norm(x_warm, b) < 1e-8, f"trial {trial}"

    def test_values_with_zero_diagonal_entries(self):
        # The pattern keeps its diagonal entries, but several of their
        # *values* become exactly zero — partial pivoting must defer those
        # pivots, and the static structure must already cover the swaps.
        a = random_pivot_matrix(35, 7)
        plan = build_plan(a)
        rng = np.random.default_rng(42)
        b = np.ones(35)
        trials = 0
        while trials < 10:
            a_new = _random_values(a, rng, zero_diag_count=3)
            dense = a_new.to_dense()
            assert np.count_nonzero(np.diag(dense) == 0.0) >= 1
            if np.linalg.cond(dense) > 1e10:
                continue  # zeroing made it (near-)singular; draw again
            trial = trials = trials + 1
            fresh = lu(a_new)
            warm = refactorize_with_plan(plan, a_new)
            _assert_same_factors(fresh.solver.result, warm.result)
            x = warm.solve(b)
            assert warm.residual_norm(x, b) < 1e-8, f"trial {trial}"

    def test_plan_mismatch_is_typed_error(self):
        a = random_pivot_matrix(30, 3)
        other = random_sparse(30, density=0.15, seed=11)
        plan = build_plan(a)
        with pytest.raises(PlanMismatchError):
            refactorize_with_plan(plan, other)

    def test_cached_plan_identical_to_direct_build(self):
        a = random_pivot_matrix(30, 4)
        cache = PlanCache(max_entries=4)
        p_cached = cache.get_or_build(a)
        p_direct = build_plan(a)
        assert isinstance(p_cached, SymbolicPlan)
        assert p_cached.fingerprint == p_direct.fingerprint
        assert np.array_equal(p_cached.row_perm, p_direct.row_perm)
        assert np.array_equal(p_cached.col_perm, p_direct.col_perm)
        a_new = a.with_values(a.data * 1.5)
        r1 = refactorize_with_plan(p_cached, a_new).result
        r2 = refactorize_with_plan(p_direct, a_new).result
        _assert_same_factors(r1, r2)


class TestWarmPathSkipsSymbolic:
    def test_no_symbolic_span_under_warm_refactor(self):
        a = random_pivot_matrix(30, 5)
        build_tracer = Tracer()
        plan = build_plan(a, tracer=build_tracer)
        build_names = {s.name for s in build_tracer.walk()}
        assert "static_fill" in build_names  # the cold path did run it

        warm_tracer = Tracer()
        a_new = a.with_values(a.data * 2.0)
        refactorize_with_plan(plan, a_new, tracer=warm_tracer)
        warm_names = {s.name for s in warm_tracer.walk()}
        assert "factorize" in warm_names
        assert not (warm_names & SYMBOLIC_SPANS), warm_names

    def test_lu_plan_path_opens_no_symbolic_span(self):
        a = random_pivot_matrix(30, 6)
        plan = lu(a).plan
        warm = lu(a, plan=plan)
        names = {s.name for s in warm.trace.walk()}
        assert "factorize" in names
        assert not (names & SYMBOLIC_SPANS), names

    def test_solver_refactorize_opens_no_symbolic_span(self):
        a = random_pivot_matrix(30, 8)
        handle = lu(a)
        # Drop the cold-path spans, keep only what refactor adds.
        handle.solver.tracer.roots.clear()
        handle.refactor(a.data * 0.5)
        names = {s.name for s in handle.solver.tracer.walk()}
        assert "factorize" in names
        assert not (names & SYMBOLIC_SPANS), names


#: The whole root-span vocabulary of the request path.
ROOT_SPANS = frozenset({"analyze", "factorize", "solve", "solve_refined"})


def _span_tree(tracer):
    """``tracer``'s spans as nested ``(name, children)`` tuples."""

    def node(span):
        return span.name, tuple(node(c) for c in span.children)

    return tuple(node(s) for s in tracer.roots)


def _served(plan, a, b, tracer=None):
    """``x`` from a ``SolverService`` whose cache already holds ``plan``."""
    cache = PlanCache(max_entries=4)
    cache.put(plan)
    with SolverService(n_workers=0, cache=cache, tracer=tracer) as service:
        return service.solve(a, b, options=plan.options)


def _warm_entry_points(a0, a, plan, b):
    """Every warm way to factor ``a`` (new values on ``a0``'s pattern) and
    solve ``b``: ``{name: (FactorResult | None, x, tracer)}``."""
    opts = plan.options
    out = {}

    handle = lu(a, plan=plan)
    out["lu(plan=)"] = (handle.solver.result, handle.solve(b), handle.trace)

    handle = lu(a0, equilibrate=opts.equilibrate)
    handle.trace.roots.clear()  # drop the cold spans of the first lu()
    handle.refactor(a.data)
    out["LUHandle.refactor"] = (handle.solver.result, handle.solve(b), handle.trace)

    tracer = Tracer()
    fac = refactorize_with_plan(plan, a, tracer=tracer)
    out["refactorize_with_plan"] = (fac.result, fac.solve(b), tracer)

    tracer = Tracer()
    out["SolverService"] = (None, _served(plan, a, b, tracer), tracer)
    return out


class TestEntryPointEquivalence:
    @pytest.mark.parametrize(
        "seed, zero_diag, equilibrate", [(0, 0, False), (7, 3, False), (2, 0, True)]
    )
    def test_same_bits_and_span_names(self, monkeypatch, seed, zero_diag, equilibrate):
        # The REPRO_ANALYZE hook adds an analysis.verify span to every build.
        monkeypatch.delenv("REPRO_ANALYZE", raising=False)
        a0 = random_pivot_matrix(35, seed)
        rng = np.random.default_rng(300 + seed)
        a = _random_values(a0, rng, zero_diag_count=zero_diag)
        while np.linalg.cond(a.to_dense()) > 1e10:
            a = _random_values(a0, rng, zero_diag_count=zero_diag)
        plan = build_plan(a0, SolverOptions(equilibrate=equilibrate))
        b = np.arange(1.0, 36.0)

        cold = lu(a, equilibrate=equilibrate)
        x_cold = cold.solve(b)
        assert {s.name for s in cold.trace.roots} == {"analyze", "factorize", "solve"}
        for name, (result, x, tracer) in _warm_entry_points(a0, a, plan, b).items():
            if result is not None:
                _assert_same_factors(cold.solver.result, result)
            assert np.array_equal(x_cold, x), name
            names = {s.name for s in tracer.walk()}
            assert not (names & SYMBOLIC_SPANS), (name, names)
            roots = tracer.roots
            if name == "SolverService":  # the flight's span wraps the request path
                (flight,) = roots
                assert flight.name == "service.batch"
                roots = flight.children
            assert {s.name for s in roots} == {"factorize", "solve"}, name
        # lu() is build_plan + refactorize_with_plan, span for span.
        tracer = Tracer()
        staged = build_plan(a, SolverOptions(equilibrate=equilibrate), tracer=tracer)
        x_staged = refactorize_with_plan(staged, a, tracer=tracer).solve(b)
        assert np.array_equal(x_staged, x_cold)
        assert _span_tree(tracer) == _span_tree(cold.trace)
        cold.solve_refined(b)
        assert {s.name for s in cold.trace.roots} <= ROOT_SPANS

    def test_pattern_mismatch_keeps_typed_errors(self):
        a = random_pivot_matrix(30, 3)
        other = random_sparse(30, density=0.15, seed=11)
        plan = build_plan(a)
        # One error for one condition, whichever entry point meets it.
        with pytest.raises(PlanMismatchError):
            lu(a).refactor(other)
        with pytest.raises(PlanMismatchError):
            lu(other, plan=plan)
        with pytest.raises(PlanMismatchError):
            refactorize_with_plan(plan, other)

    def test_sanitized_warm_paths_run_clean(self, monkeypatch):
        # REPRO_SANITIZE=1 needs the plan's static fill at every engine call,
        # whichever entry point made it.
        a = random_pivot_matrix(35, 4)
        plan = build_plan(a)
        b = np.arange(1.0, 36.0)
        plain = refactorize_with_plan(plan, a)
        x_plain, x_served = plain.solve(b), _served(plan, a, b)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = refactorize_with_plan(plan, a)  # raises on any finding
        _assert_same_factors(plain.result, sanitized.result)
        assert np.array_equal(sanitized.solve(b), x_plain)
        assert np.array_equal(_served(plan, a, b), x_served)

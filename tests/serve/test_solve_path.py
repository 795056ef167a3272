"""The serving hot path solves in block form — never the scalar loops.

A warm :class:`SolverService` request (plan cached, factors retained in
panel form) must run the supernodal block engine: the ``solve`` span
carries ``impl="block"``, a ``solve.block`` child span is present, and no
``solve.reference`` span opens anywhere. A companion test solves with
factors extracted without blocks and asserts the scalar span *does*
appear — proving the no-scalar assertion would catch a regression.
"""

import numpy as np

from repro.numeric.factor import LUFactorization
from repro.obs.trace import Tracer
from repro.serve.cache import PlanCache
from repro.serve.plan import build_plan
from repro.serve.refactor import (
    NumericFactorization,
    permuted_values,
    refactorize_with_plan,
)
from repro.serve.service import SolverService
from tests.conftest import random_pivot_matrix


def _solve_spans(tracer):
    return {s.name: s for s in tracer.walk() if s.name.startswith("solve")}


class TestPlanCarriesSchedule:
    def test_plan_has_solve_schedule_and_inverse_perm(self):
        a = random_pivot_matrix(30, 0)
        plan = build_plan(a)
        # The block solve runs in fixed block order: a plan carries no
        # solve schedule, only the inverse row permutation every solve uses.
        assert not hasattr(plan, "solve_schedule")
        inv = plan.row_perm_inv
        assert inv is not None
        assert np.array_equal(plan.row_perm[inv], np.arange(a.n_cols))

    def test_refactorization_retains_blocks(self):
        a = random_pivot_matrix(30, 1)
        plan = build_plan(a)
        fac = refactorize_with_plan(plan, a)
        fac.solve(np.ones(a.n_cols))
        assert fac.result.blocks is not None
        assert not hasattr(plan, "solve_schedule")
        assert fac.result.blocks.n_blocks == plan.bp.n_blocks


class TestWarmServiceSolvesInBlockForm:
    def _run_request(self, tracer, n_rhs=3):
        a = random_pivot_matrix(40, 2)
        rng = np.random.default_rng(2)
        b = rng.standard_normal((40, n_rhs))
        with SolverService(n_workers=0, tracer=tracer) as svc:
            # Warm the cache, then clear the trace so only the warm
            # request's spans remain.
            svc.solve(a, b)
            tracer.roots.clear()
            x = svc.solve(a, b)
            stats = svc.stats()
        assert stats["cache"]["hits"] >= 1
        return x, a, b

    def test_no_scalar_span_on_warm_request(self):
        tracer = Tracer()
        x, a, b = self._run_request(tracer)
        spans = _solve_spans(tracer)
        assert "solve" in spans
        assert spans["solve"].attrs["impl"] == "block"
        assert spans["solve"].attrs["n_rhs"] == 3
        assert "solve.block" in spans
        assert spans["solve.block"].attrs["n_blocks"] > 0
        assert "solve.reference" not in spans
        # And the answer is still right.
        fac = refactorize_with_plan(build_plan(a), a)
        assert fac.residual_norm(x[:, 0], b[:, 0]) < 1e-8

    def test_unretained_factors_reenter_scalar_path(self):
        # The detector works: factors extracted without blocks make the
        # scalar span appear where the previous test asserts its absence.
        a = random_pivot_matrix(40, 2)
        plan = build_plan(a)
        a_work, _ = permuted_values(plan, a)
        eng = LUFactorization(a_work, plan.bp, layout=plan.layout)
        eng.factor_sequential()
        tracer = Tracer()
        fac = NumericFactorization(plan, a, a_work, eng.extract(), tracer=tracer)
        fac.solve(np.ones((40, 3)))
        spans = _solve_spans(tracer)
        assert spans["solve"].attrs["impl"] == "reference"
        assert "solve.reference" in spans
        assert "solve.block" not in spans

    def test_n_rhs_histogram_observed(self):
        a = random_pivot_matrix(30, 3)
        b = np.ones((30, 5))
        with SolverService(n_workers=0, cache=PlanCache()) as svc:
            svc.solve(a, b)
            hist = svc.metrics.histogram("solve.n_rhs")
        assert hist.count == 1
        assert hist.total == 5

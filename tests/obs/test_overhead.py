"""The overhead contract: disabled tracing must cost one branch per site.

The structural tests are fast and always run; the wall-clock regression is
timing-sensitive and marked ``slow`` (run with ``-m slow``).
"""

import time

import numpy as np
import pytest

from repro.numeric.factor import LUFactorization
from repro.obs.trace import NULL_SPAN, Tracer
from repro.serve import build_plan, refactorize_with_plan
from repro.serve.refactor import permuted_values
from repro.sparse.generators import paper_matrix
from tests.conftest import solve_pipeline


class TestStructural:
    def test_disabled_span_is_shared_singleton(self):
        tr = Tracer(enabled=False)
        assert tr.span("factorize") is NULL_SPAN
        assert tr.span("solve", n=3) is NULL_SPAN

    def test_default_solver_records_no_detail_metrics(self):
        a = paper_matrix("orsreg1", scale=0.15)
        fact = solve_pipeline(a)
        assert fact.tracer.detail is False
        # Stage spans exist...
        assert "factorize" in fact.tracer.stage_seconds()
        # ...but no per-kernel counters were allocated, let alone updated.
        assert fact.tracer.metrics.empty

    def test_traced_solver_records_detail_metrics(self):
        a = paper_matrix("orsreg1", scale=0.15)
        fact = solve_pipeline(a, trace=True)
        assert fact.tracer.metrics.get("kernel.factor.calls").value > 0


@pytest.mark.slow
class TestWallClock:
    def test_disabled_tracing_under_five_percent(self, monkeypatch):
        """Factorization through ``refactorize_with_plan`` under the tracer
        ``lu(a)`` gets (enabled, no detail) vs the same work with no tracer
        in the way, in interleaved pairs."""
        for var in ("REPRO_ENGINE", "REPRO_SANITIZE", "REPRO_ANALYZE"):
            monkeypatch.delenv(var, raising=False)
        a = paper_matrix("orsreg1", scale=0.2)
        plan = build_plan(a)
        tracer = Tracer()

        def bare() -> float:
            # Mirrors refactorize_with_plan on the sequential engine minus
            # spans and metrics: same checks, same value permutation, same
            # layout, same retained blocks.
            t0 = time.perf_counter()
            assert np.isfinite(a.data).all()
            a_work, _ = permuted_values(plan, a)
            eng = LUFactorization(a_work, plan.bp, layout=plan.layout)
            eng.factor_sequential()
            eng.extract(retain_blocks=True)
            return time.perf_counter() - t0

        def instrumented() -> float:
            t0 = time.perf_counter()
            refactorize_with_plan(plan, a, tracer=tracer, check_pattern=False)
            return time.perf_counter() - t0

        # Warm up, then time interleaved pairs, alternating which side runs
        # first so drift in host speed lands on both; the median of the
        # per-pair ratios is robust to the odd preempted run.
        bare()
        instrumented()
        ratios = []
        for i in range(31):
            if i % 2:
                t_inst, t_bare = instrumented(), bare()
            else:
                t_bare, t_inst = bare(), instrumented()
            ratios.append(t_inst / t_bare)
        ratio = float(np.median(ratios))
        assert ratio <= 1.05, (
            f"instrumented factorize is {ratio - 1:+.1%} over bare "
            f"(median of {len(ratios)} pairs)"
        )

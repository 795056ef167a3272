"""The overhead contract: disabled tracing must cost one branch per site.

The structural tests are fast and always run; the wall-clock regression is
timing-sensitive and marked ``slow`` (run with ``-m slow``).
"""

import time

import pytest

from repro.numeric.factor import LUFactorization
from repro.numeric.solver import SparseLUSolver
from repro.obs.trace import NULL_SPAN, Tracer
from repro.sparse.generators import paper_matrix


class TestStructural:
    def test_disabled_span_is_shared_singleton(self):
        tr = Tracer(enabled=False)
        assert tr.span("factorize") is NULL_SPAN
        assert tr.span("solve", n=3) is NULL_SPAN

    def test_default_solver_records_no_detail_metrics(self):
        a = paper_matrix("orsreg1", scale=0.15)
        solver = SparseLUSolver(a).analyze().factorize()
        assert solver.tracer.detail is False
        # Stage spans exist...
        assert "factorize" in solver.tracer.stage_seconds()
        # ...but no per-kernel counters were allocated, let alone updated.
        assert solver.tracer.metrics.empty

    def test_traced_solver_records_detail_metrics(self):
        a = paper_matrix("orsreg1", scale=0.15)
        solver = SparseLUSolver(a, trace=True).analyze().factorize()
        assert solver.tracer.metrics.get("kernel.factor.calls").value > 0


@pytest.mark.slow
class TestWallClock:
    def test_disabled_tracing_under_five_percent(self):
        """Factorization through the (trace=False) solver vs the bare engine."""
        a = paper_matrix("orsreg1", scale=0.2)
        solver = SparseLUSolver(a).analyze()

        def bare() -> float:
            # Mirrors solver.factorize() minus spans/metrics: same engine,
            # same sequential order, same extract().
            t0 = time.perf_counter()
            eng = LUFactorization(solver.a_work, solver.bp)
            eng.factor_sequential()
            eng.extract()
            return time.perf_counter() - t0

        def instrumented() -> float:
            s = SparseLUSolver(a)
            s.analyze()
            t0 = time.perf_counter()
            s.factorize()
            return time.perf_counter() - t0

        # Warm up caches/JIT-free interpreter state, then take best-of-5:
        # min is the standard low-noise estimator for wall-clock floors.
        bare()
        instrumented()
        t_bare = min(bare() for _ in range(5))
        t_inst = min(instrumented() for _ in range(5))
        assert t_inst <= t_bare * 1.05, (
            f"instrumented factorize {t_inst:.4f}s vs bare {t_bare:.4f}s "
            f"({t_inst / t_bare - 1:+.1%} overhead)"
        )

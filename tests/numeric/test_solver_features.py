"""Tests for the production-solver features: equilibration and stage
timings."""

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix, solve_pipeline
from repro.numeric.scaling import Equilibration, equilibrate
from repro.sparse.convert import csc_from_dense
from repro.util.errors import SingularMatrixError


class TestEquilibration:
    def badly_scaled(self, seed=0, n=25):
        a = random_pivot_matrix(n, seed)
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.integers(-8, 8, n)
        b = a.copy()
        for j in range(n):
            lo, hi = int(a.indptr[j]), int(a.indptr[j + 1])
            b.data[lo:hi] = a.data[lo:hi] * scales[a.indices[lo:hi]]
        return b

    def test_unit_max_norms(self):
        a = self.badly_scaled()
        eq = equilibrate(a)
        scaled = eq.apply(a)
        d = np.abs(scaled.to_dense())
        col_max = d.max(axis=0)
        assert np.all(col_max <= 1.0 + 1e-12)
        assert np.all(col_max[col_max > 0] > 1e-3)

    def test_solver_with_equilibration(self):
        from repro.numeric.refine import backward_error

        a = self.badly_scaled(1)
        s = solve_pipeline(a, equilibrate=True)
        b = np.ones(a.n_cols)
        x = s.solve(b)
        # On a matrix spanning 16 orders of magnitude, the meaningful
        # metric is the backward error (‖r‖ is dominated by ‖A‖‖x‖).
        assert backward_error(a, x, b) < 1e-12
        assert "equilibrate" in s.tracer.stage_seconds()

    def test_equilibration_never_hurts_backward_error(self):
        from repro.numeric.refine import backward_error

        a = self.badly_scaled(2)
        b = np.ones(a.n_cols)
        plain = solve_pipeline(a)
        eq = solve_pipeline(a, equilibrate=True)
        e_plain = backward_error(a, plain.solve(b), b)
        e_eq = backward_error(a, eq.solve(b), b)
        assert e_eq <= max(e_plain * 10, 1e-12)

    def test_zero_row_rejected(self):
        dense = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            equilibrate(csc_from_dense(dense))

    def test_roundtrip_transforms(self):
        a = self.badly_scaled(3)
        eq = equilibrate(a)
        b = np.arange(1.0, a.n_cols + 1.0)
        # D_r A D_c (D_c^{-1} x) = D_r b  <=>  A x = b.
        scaled = eq.apply(a)
        x_ref = np.linalg.solve(a.to_dense(), b)
        y = np.linalg.solve(scaled.to_dense(), eq.scale_rhs(b))
        assert np.allclose(eq.unscale_solution(y), x_ref, rtol=1e-6)


class TestTimings:
    def test_stage_timings_recorded(self):
        a = random_pivot_matrix(25, 0)
        seconds = solve_pipeline(a).tracer.stage_seconds()
        for stage in (
            "transversal",
            "ordering",
            "static_fill",
            "postorder",
            "supernodes",
            "factorize",
        ):
            assert seconds[stage] >= 0.0
        # The sequential engine never reads the task graph, so a request
        # does not build it, detail-traced or not (``repro trace`` prices
        # the graph as an explicit step of its own).
        assert "task_graph" not in seconds
        traced = solve_pipeline(a, trace=True).tracer
        assert [s.name for s in traced.roots] == ["analyze", "factorize"]

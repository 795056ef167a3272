"""Tests for the production-solver features: slogdet, equilibration,
sparse-RHS solve, and stage timings."""

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix
from repro.numeric.factor import LUFactorization
from repro.numeric.scaling import Equilibration, equilibrate
from repro.numeric.solver import SolverOptions, SparseLUSolver
from repro.numeric.triangular import sparse_lower_unit_solve_csc
from repro.sparse.convert import csc_from_dense
from repro.util.errors import SingularMatrixError


class TestSlogdet:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_numpy(self, seed):
        a = random_pivot_matrix(20, seed)
        s = SparseLUSolver(a).analyze()
        eng = LUFactorization(s.a_work, s.bp)
        eng.factor_sequential()
        sign, logdet = eng.extract().slogdet()
        ref_sign, ref_logdet = np.linalg.slogdet(s.a_work.to_dense())
        assert sign == pytest.approx(ref_sign)
        assert logdet == pytest.approx(ref_logdet, rel=1e-10)

    def test_identity(self):
        a = csc_from_dense(np.eye(5))
        s = SparseLUSolver(a).analyze()
        eng = LUFactorization(s.a_work, s.bp)
        eng.factor_sequential()
        sign, logdet = eng.extract().slogdet()
        assert (sign, logdet) == (1.0, 0.0)


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
        s = SparseLUSolver(a, SolverOptions(equilibrate=True)).analyze().factorize()
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
        plain = SparseLUSolver(a).analyze().factorize()
        eq = SparseLUSolver(a, SolverOptions(equilibrate=True)).analyze().factorize()
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

    def test_amplification(self):
        eq = Equilibration(
            row_scale=np.array([1.0, 100.0]), col_scale=np.array([1.0, 2.0])
        )
        assert eq.amplification == 100.0


class TestSparseSolve:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_solve(self, seed):
        a = random_pivot_matrix(30, seed)
        s = SparseLUSolver(a).analyze()
        eng = LUFactorization(s.a_work, s.bp)
        eng.factor_sequential()
        res = eng.extract()
        rng = np.random.default_rng(seed)
        b_rows = np.unique(rng.integers(0, 30, 3))
        b_vals = rng.standard_normal(b_rows.size)
        rows, vals = sparse_lower_unit_solve_csc(res.l_factor, b_rows, b_vals)
        dense_b = np.zeros(30)
        dense_b[b_rows] = b_vals
        from repro.numeric.triangular import lower_unit_solve_csc

        ref = lower_unit_solve_csc(res.l_factor, dense_b)
        full = np.zeros(30)
        full[rows] = vals
        assert np.allclose(full, ref)
        # Nonzeros confined to the reach.
        assert set(np.nonzero(ref)[0]).issubset(set(rows.tolist()))

    def test_empty_rhs(self):
        a = random_pivot_matrix(10, 7)
        s = SparseLUSolver(a).analyze()
        eng = LUFactorization(s.a_work, s.bp)
        eng.factor_sequential()
        rows, vals = sparse_lower_unit_solve_csc(
            eng.extract().l_factor, np.array([], dtype=int), np.array([])
        )
        assert rows.size == 0

    def test_out_of_range(self):
        from repro.util.errors import ShapeError

        a = random_pivot_matrix(10, 8)
        s = SparseLUSolver(a).analyze()
        eng = LUFactorization(s.a_work, s.bp)
        eng.factor_sequential()
        with pytest.raises(ShapeError):
            sparse_lower_unit_solve_csc(
                eng.extract().l_factor, np.array([99]), np.array([1.0])
            )


class TestTimings:
    def test_stage_timings_recorded(self):
        a = random_pivot_matrix(25, 0)
        seconds = SparseLUSolver(a).analyze().factorize().tracer.stage_seconds()
        for stage in (
            "transversal",
            "ordering",
            "static_fill",
            "postorder",
            "supernodes",
            "factorize",
        ):
            assert seconds[stage] >= 0.0
        # The sequential engine never reads the task graph, so a plain
        # request does not build it; detail tracing does, for the simulation.
        assert "task_graph" not in seconds
        traced = SparseLUSolver(a, trace=True).analyze().factorize().tracer
        span = traced.find("task_graph")
        assert span.attrs["n_tasks"] > 0 and span.attrs["n_edges"] > 0
        assert [s.name for s in traced.roots] == [
            "analyze", "factorize", "task_graph", "simulate_schedule",
        ]

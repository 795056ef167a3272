"""Factorization engine tests: PA = LU, pivot bookkeeping, error paths."""

import numpy as np
import pytest

from tests.conftest import analyzed, random_pivot_matrix
from repro.analysis.sanitizer import build_sanitizer
from repro.numeric.factor import LUFactorization
from repro.parallel.dispatch import replay_order
from repro.taskgraph.tasks import enumerate_tasks, factor_task, update_task
from repro.util.errors import SchedulingError


def factorize(n=30, seed=0, **opts):
    plan, a_work = analyzed(random_pivot_matrix(n, seed), **opts)
    eng = LUFactorization(a_work, plan.bp)
    eng.factor_sequential()
    return a_work, eng


def sanitized_replay(plan, a_work, order):
    """The finding kinds of ``order`` replayed against the plan's graph."""
    san = build_sanitizer(plan.bp, plan.fill)
    eng = LUFactorization(a_work, plan.bp)
    replay_order(eng, order, plan.graph, sanitizer=san)
    return [f.check for f in san.findings]


class TestPALU:
    @pytest.mark.parametrize("seed", range(10))
    def test_pa_equals_lu(self, seed):
        a_work, eng = factorize(seed=seed)
        res = eng.extract()
        aw = a_work.to_dense()
        pa = aw[res.orig_at, :]
        lu = res.l_factor.to_dense() @ res.u_factor.to_dense()
        scale = max(1.0, np.abs(aw).max())
        assert np.max(np.abs(pa - lu)) / scale < 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(postorder=False),
            dict(amalgamation=False),
            dict(postorder=False, amalgamation=False),
            dict(ordering="rcm"),
            dict(ordering="natural"),
        ],
    )
    def test_pa_equals_lu_across_options(self, kwargs):
        a_work, eng = factorize(seed=3, **kwargs)
        res = eng.extract()
        aw = a_work.to_dense()
        pa = aw[res.orig_at, :]
        lu = res.l_factor.to_dense() @ res.u_factor.to_dense()
        assert np.max(np.abs(pa - lu)) / max(1.0, np.abs(aw).max()) < 1e-12

    def test_l_unit_lower_u_upper(self):
        _, eng = factorize(seed=1)
        res = eng.extract()
        l = res.l_factor.to_dense()
        u = res.u_factor.to_dense()
        assert np.allclose(np.diag(l), 1.0)
        assert np.allclose(np.triu(l, 1), 0.0)
        assert np.allclose(np.tril(u, -1), 0.0)

    def test_orig_at_is_permutation(self):
        _, eng = factorize(seed=2)
        res = eng.extract()
        assert sorted(res.orig_at.tolist()) == list(range(30))

    def test_pivoting_actually_happened(self):
        # Weak diagonals guarantee at least one row ended up displaced.
        _, eng = factorize(seed=4)
        res = eng.extract()
        assert not np.array_equal(res.orig_at, np.arange(30))

    @pytest.mark.parametrize("seed", range(6))
    def test_slot_factors_within_static_fill(self, seed):
        """The George-Ng guarantee, numerically realized: with scalar
        (width-1) blocks, every nonzero multiplier sits at a slot whose Ā
        row covers its column, and U stays inside Ā — the per-step slot
        labels are exactly the candidate-row labels the theorem speaks
        about. (Wider panels re-swap already-computed multiplier rows, as
        dense getrf does, so slot containment is a width-1 statement.)
        """
        from repro.symbolic.supernodes import SupernodePartition, block_pattern

        plan, a_work = analyzed(random_pivot_matrix(30, seed), postorder=False)
        part = SupernodePartition(starts=np.arange(plan.fill.n + 1))
        bp = block_pattern(plan.fill, part)
        eng = LUFactorization(a_work, bp)
        eng.factor_sequential()
        fill = plan.fill.pattern.to_dense() != 0
        tol = 1e-12
        for k in range(bp.n_blocks):
            col = eng.data.sub_panel(k)[:, 0]
            rows = eng.data.sub_rows(k)[np.abs(col) > tol]
            assert np.all(fill[rows, k]), f"column {k}"
        res = eng.extract(drop_tol=tol)
        u = res.u_factor.to_dense() != 0
        assert not np.any(u & ~fill)


class TestSolve:
    def test_factor_result_solve(self):
        a_work, eng = factorize(seed=6)
        res = eng.extract()
        aw = a_work.to_dense()
        b = np.arange(1.0, 31.0)
        x = res.solve(b)
        assert np.allclose(aw @ x, b, atol=1e-8 * np.abs(aw).max())


class TestErrorPaths:
    def test_double_execution_rejected(self):
        plan, a_work = analyzed(random_pivot_matrix(20, 7))
        eng = LUFactorization(a_work, plan.bp)
        eng.factor_sequential()
        with pytest.raises(SchedulingError):
            eng.run_task(factor_task(0))

    def test_extract_before_completion_rejected(self):
        plan, a_work = analyzed(random_pivot_matrix(20, 8))
        eng = LUFactorization(a_work, plan.bp)
        n_blocks = plan.bp.n_blocks
        with pytest.raises(SchedulingError, match=f"^{n_blocks} block columns"):
            eng.extract()
        eng.run_task(factor_task(0))
        with pytest.raises(SchedulingError, match=f"^{n_blocks - 1} block columns"):
            eng.extract()

    def test_check_dependencies_catches_early_factor(self):
        """A sanitized replay flags an F(k) moved ahead of its updates and
        passes the reference order."""
        plan, a_work = analyzed(random_pivot_matrix(25, 9), max_supernode=4)
        order = enumerate_tasks(plan.bp)
        assert sanitized_replay(plan, a_work, order) == []
        # A block column with at least one incoming update.
        target = next(
            k for k in range(plan.bp.n_blocks)
            if any(int(i) < k for i in plan.bp.col_blocks(k))
        )
        f = factor_task(target)
        checks = sanitized_replay(plan, a_work, [f] + [t for t in order if t != f])
        assert "sanitizer.missing_happens_before" in checks

    def test_check_dependencies_catches_update_before_factor(self):
        """A sanitized replay flags a U(k, j) run before its F(k)."""
        plan, a_work = analyzed(random_pivot_matrix(25, 10), max_supernode=4)
        order = enumerate_tasks(plan.bp)
        u = next(t for t in order if t.kind == "U")
        bad = [u] + [t for t in order if t != u]
        assert "sanitizer.missing_happens_before" in sanitized_replay(plan, a_work, bad)

    def test_update_unstored_block_rejected(self):
        plan, a_work = analyzed(random_pivot_matrix(25, 11))
        eng = LUFactorization(a_work, plan.bp)
        eng.run_task(factor_task(0))
        # Find a j with no block (0, j).
        for j in range(1, plan.bp.n_blocks):
            if not plan.bp.has_block(0, j):
                with pytest.raises(SchedulingError):
                    eng.run_task(update_task(0, j))
                break

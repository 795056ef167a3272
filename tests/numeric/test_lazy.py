"""LazyS+-style zero-block elimination tests."""

import numpy as np

from tests.conftest import analyzed, random_pivot_matrix, solve_pipeline
from repro.numeric.factor import LUFactorization, LazyStats
from repro.sparse.generators import paper_matrix


class TestLazyStats:
    def test_counters_cover_all_updates(self):
        plan, a_work = analyzed(random_pivot_matrix(35, 0))
        eng = LUFactorization(a_work, plan.bp)
        eng.factor_sequential()
        n_updates = sum(1 for t in plan.graph.tasks() if t.kind == "U")
        ls = eng.lazy_stats
        assert ls.n_updates_skipped + ls.n_updates_run == n_updates
        assert 0.0 <= ls.saved_fraction <= 1.0

    def test_skipping_preserves_factors(self):
        """Skips fire on exactly-zero blocks, so results are bitwise equal
        to a non-skipping run — verified against the scipy solution."""
        import scipy.sparse.linalg as spla

        from repro.sparse.convert import csc_to_scipy

        a = paper_matrix("sherman3", scale=0.12)
        s = solve_pipeline(a)
        b = np.ones(a.n_cols)
        x = s.solve(b)
        x_ref = spla.spsolve(csc_to_scipy(a), b)
        assert np.allclose(x, x_ref, rtol=1e-8, atol=1e-10)

    def test_substantial_savings_on_analogs(self):
        """The §2 LazyS+ motivation: a large share of the conservative
        static structure never carries numerical work."""
        a = paper_matrix("sherman3", scale=0.15)
        plan, a_work = analyzed(a)
        eng = LUFactorization(a_work, plan.bp)
        eng.factor_sequential()
        assert eng.lazy_stats.saved_fraction > 0.2

    def test_dense_matrix_saves_nothing_much(self):
        from repro.sparse.convert import csc_from_dense

        rng = np.random.default_rng(0)
        a = csc_from_dense(rng.standard_normal((20, 20)))
        plan, a_work = analyzed(a)
        eng = LUFactorization(a_work, plan.bp)
        eng.factor_sequential()
        assert eng.lazy_stats.n_updates_skipped == 0

    def test_stats_dataclass(self):
        ls = LazyStats()
        assert ls.saved_fraction == 0.0
        ls.flops_saved, ls.flops_spent = 3, 1
        assert ls.saved_fraction == 0.75

"""Property tests pinning the supernodal block solve engine to the scalar
reference.

The block engine (:mod:`repro.numeric.supersolve`) must agree with the
per-column CSC reference solves to 1e-12 relative on random, multi-RHS,
deep-chain, and block-triangular systems and on the seven paper analogs —
where pivot renames carry L rows across block boundaries, outside the
static pattern — while holding no copy of the factors. The oracle is
``tests.conftest.scalar_solve``, called directly. Also pins which
implementation a solve runs: the block one whenever blocks were
retained, the scalar one bit-for-bit otherwise.
"""

import numpy as np
import pytest

from repro.numeric.factor import LUFactorization
from repro.numeric.solve_dispatch import resolve_impl
from repro.obs.trace import Tracer
from repro.serve import NumericFactorization, refactorize_with_plan
from repro.sparse.convert import csc_from_dense
from repro.sparse.generators import PAPER_MATRICES, paper_matrix
from repro.taskgraph.solve_graph import level_schedule
from repro.util.errors import ShapeError
from tests.conftest import analyzed, random_pivot_matrix, scalar_solve, solve_pipeline


def unretained(fact, tracer=None):
    """``fact`` re-extracted without block factors."""
    plan = fact.plan
    eng = LUFactorization(fact.a_work, plan.bp, layout=plan.layout)
    eng.factor_sequential()
    return NumericFactorization(
        plan, fact.a, fact.a_work, eng.extract(), fact.equil, tracer
    )


def assert_close(x, x_ref, tol=1e-12):
    scale = float(np.max(np.abs(x_ref))) or 1.0
    err = float(np.max(np.abs(x - x_ref))) / scale
    assert err <= tol, f"relative error {err:.3e} > {tol:g}"


def deep_chain_matrix(n=60):
    """Bidiagonal-plus-last-row values: one long dependence chain, so the
    solve schedule has O(n_blocks) levels in both directions."""
    dense = np.zeros((n, n))
    idx = np.arange(n)
    dense[idx, idx] = 2.0 + 0.01 * idx
    dense[idx[1:], idx[:-1]] = -1.0
    dense[n - 1, :] += 0.1
    return csc_from_dense(dense)


def block_triangular_matrix(seed=0):
    """Dense diagonal blocks with entries above the block diagonal: several
    independent eforest trees, so levels hold many blocks."""
    rng = np.random.default_rng(seed)
    sizes = [6, 4, 8, 5, 7]
    n = sum(sizes)
    dense = np.zeros((n, n))
    start = 0
    for size in sizes:
        blk = rng.standard_normal((size, size))
        blk[np.arange(size), np.arange(size)] += size  # well-conditioned
        dense[start : start + size, start : start + size] = blk
        if start + size < n:
            mask = rng.random((size, n - start - size)) < 0.25
            vals = rng.standard_normal((size, n - start - size))
            dense[start : start + size, start + size :] = mask * vals
        start += size
    return csc_from_dense(dense)


#: Amalgamation bounds tight enough that the small structural cases below
#: keep more than one supernode.
NARROW = {"max_padding": 0.25, "max_supernode": 48}


def rhs_shapes(n, seed):
    """A vector and a 16-column right-hand side."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal((n, 16))


class TestBlockVsReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_vector(self, seed):
        a = random_pivot_matrix(40, seed)
        fact = solve_pipeline(a)
        b = np.random.default_rng(seed).standard_normal(40)
        assert_close(fact.solve(b), scalar_solve(fact, b))

    @pytest.mark.parametrize("n_rhs", [1, 3, 16])
    def test_multi_rhs(self, n_rhs):
        a = random_pivot_matrix(50, 7)
        fact = solve_pipeline(a)
        b = np.random.default_rng(7).standard_normal((50, n_rhs))
        x = fact.solve(b)
        assert x.shape == (50, n_rhs)
        assert_close(x, scalar_solve(fact, b))

    def test_deep_chain(self):
        a = deep_chain_matrix()
        fact = solve_pipeline(a, **NARROW)
        sched = level_schedule(fact.plan.bp)
        assert sched.n_fwd_levels > 3  # genuinely sequential structure
        for b in rhs_shapes(a.n_cols, 0):
            assert_close(fact.solve(b), scalar_solve(fact, b))

    def test_block_triangular(self):
        a = block_triangular_matrix()
        # The blocks are independent as given; a fill-reducing ordering may
        # chain them (amd does), so keep the natural one.
        fact = solve_pipeline(a, ordering="natural", **NARROW)
        sched = level_schedule(fact.plan.bp)
        assert max(lv.size for lv in sched.fwd_levels) > 1  # independent trees
        for b in rhs_shapes(a.n_cols, 1):
            assert_close(fact.solve(b), scalar_solve(fact, b))

    def test_equilibrated(self):
        a = random_pivot_matrix(40, 5)
        a = a.with_values(a.data * 1e4)
        fact = solve_pipeline(a, equilibrate=True)
        b = np.random.default_rng(5).standard_normal(40)
        assert_close(fact.solve(b), scalar_solve(fact, b))

    def test_paper_scale_exact_schedule(self):
        # At generator-matrix scale deferred pivoting renames rows across
        # block boundaries, outside the static block pattern; the fixed
        # block order covers them and the solutions must still agree.
        a = paper_matrix("sherman3", scale=0.15)
        fact = solve_pipeline(a)
        b = np.random.default_rng(2).standard_normal((a.n_cols, 4))
        assert_close(fact.solve(b), scalar_solve(fact, b))

    @pytest.mark.parametrize("name", sorted(PAPER_MATRICES))
    def test_paper_analogs(self, name):
        a = paper_matrix(name, scale=0.05 if name == "goodwin" else 0.1)
        fact = solve_pipeline(a)
        bf = fact.result.blocks
        # The renames that matter here: some L row of some block ends up
        # labelled outside that block column's static block rows.
        from repro.numeric.factor import _final_l_labels

        layout = fact.plan.layout
        renames = fact.result._assemble.args[-2]
        labels = _final_l_labels(layout, renames)
        escaped = any(
            not layout.has_blocks(
                layout.block_of_row[rows], np.full(rows.size, k, dtype=np.int64)
            ).all()
            for k, rows in labels.items()
        )
        if name in ("sherman3", "sherman5"):
            assert escaped  # the witnesses: the case is exercised, not vacuous
        for b in rhs_shapes(a.n_cols, 4):
            x = fact.solve(b)
            assert_close(x, scalar_solve(fact, b))
            assert fact.residual_norm(x, b) < 1e-10

    def test_factors_are_views_of_the_engine_buffer(self):
        from repro.numeric.factor import LUFactorization

        a = paper_matrix("sherman3", scale=0.1)
        plan, a_work = analyzed(a)
        layout = plan.layout
        eng = LUFactorization(a_work, plan.bp, layout=layout)
        eng.factor_sequential()
        bf = eng.extract(retain_blocks=True).blocks
        buf = eng.data.panels[0].base
        assert len(bf._steps) == plan.bp.n_blocks
        for k, (lo, hi, _, linv, below, uinv, above) in enumerate(bf._steps):
            assert (lo, hi) == (layout.starts[k], layout.starts[k + 1])
            off, w = layout.diag_offset(k), hi - lo
            panel = eng.data.panels[k]
            # L⁻¹ is F(k)'s; U⁻¹ is built at extract, a width class at a time.
            assert linv is eng.panel_facts[k].linv
            u = np.triu(panel[off : off + w])
            assert uinv.shape == (w, w) and uinv.flags.c_contiguous
            assert np.allclose(uinv @ u, np.eye(w), atol=1e-10)
            for side, rows, ids in (
                (below, panel[off + w :], layout.sub_rows(k)[w:]),
                (above, panel[:off], layout.upper_rows(k)),
            ):
                nonzero = rows.any(axis=1).nonzero()[0]
                if side is None:
                    assert nonzero.size == 0
                    continue
                part, at, at_ids = side
                assert part.base is buf and part.shape == rows.shape  # a view, never a copy
                assert np.array_equal(at, nonzero) and np.array_equal(at_ids, ids[at])

    def test_residual_small(self):
        a = paper_matrix("sherman3", scale=0.1)
        fact = solve_pipeline(a)
        b = np.random.default_rng(3).standard_normal(a.n_cols)
        x = fact.solve(b)
        assert fact.residual_norm(x, b) < 1e-8


class TestDispatch:
    def test_default_is_block(self):
        assert resolve_impl() == "block"

    def test_unknown_argument_raises(self):
        # No solve takes an implementation argument: the factors decide.
        fact = solve_pipeline(random_pivot_matrix(20, 2))
        fac = refactorize_with_plan(fact.plan, fact.a)
        b = np.ones(20)
        for solve in (fact.solve, fac.solve, fac.result.solve):
            with pytest.raises(TypeError):
                solve(b, impl="block")

    @pytest.mark.parametrize("impl", ["block", "reference"])
    def test_factor_state_selects_implementation(self, impl):
        a = random_pivot_matrix(30, 6)
        fact = solve_pipeline(a)
        tracer = Tracer()
        if impl == "block":
            fac = refactorize_with_plan(fact.plan, a, tracer=tracer)
        else:
            fac = unretained(fact, tracer)
        tracer.roots.clear()
        fac.solve(np.ones(30))
        spans = {s.name: s for s in tracer.walk()}
        assert spans["solve"].attrs["impl"] == impl
        assert f"solve.{impl}" in spans
        assert (fac.result.blocks is not None) == (impl == "block")

    def test_unretained_solve_is_bit_for_bit_scalar(self):
        # Factors extracted without blocks run exactly the scalar path.
        a = random_pivot_matrix(35, 9)
        b = np.random.default_rng(9).standard_normal(35)
        fac = unretained(solve_pipeline(a))
        assert fac.result.blocks is None
        assert np.array_equal(fac.solve(b), scalar_solve(fac, b))

    def test_block_request_falls_back_without_blocks(self):
        # Blocks not retained: the solve takes the scalar path rather
        # than failing, and agrees with the block solve of the same matrix.
        a = random_pivot_matrix(30, 4)
        fact = solve_pipeline(a)
        fac = unretained(fact)
        assert fac.result.blocks is None
        b = np.ones(30)
        assert_close(fac.solve(b), fact.solve(b))

    def test_bad_shapes_rejected(self):
        a = random_pivot_matrix(20, 3)
        fact = solve_pipeline(a)
        with pytest.raises(ShapeError):
            fact.result.blocks.solve(np.ones(21))

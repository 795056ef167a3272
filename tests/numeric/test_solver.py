"""Solver options and the full pipeline (``lu``), including the SciPy oracle."""

import numpy as np
import pytest

from tests.conftest import analyzed, random_pivot_matrix, solve_pipeline
from repro.api import lu
from repro.numeric.solver import SolverOptions
from repro.ordering import DEFAULT_ORDERING
from repro.serve import refactorize_with_plan
from repro.sparse.convert import csc_from_dense, csc_to_scipy
from repro.sparse.generators import paper_matrix, random_sparse
from repro.util.errors import DispatchError, ReproError, ShapeError


class TestOptions:
    def test_defaults(self):
        o = SolverOptions()
        assert o.ordering == DEFAULT_ORDERING == "amd"
        assert o.postorder and o.amalgamation
        assert o.task_graph == "eforest"

    def test_invalid_ordering(self):
        with pytest.raises(ValueError):
            SolverOptions(ordering="metis")

    def test_invalid_task_graph(self):
        with pytest.raises(ValueError):
            SolverOptions(task_graph="magic")

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_max_supernode(self, bad):
        with pytest.raises(ValueError, match="max_supernode must be >= 1"):
            SolverOptions(max_supernode=bad)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 2.5])
    def test_invalid_max_padding(self, bad):
        with pytest.raises(ValueError, match=r"max_padding must be in \[0, 1\)"):
            SolverOptions(max_padding=bad)

    @pytest.mark.parametrize(
        "bad, names",
        [
            ({"ordering": "metis"}, "'metis'"),
            ({"ordering_params": (("leaf_size", 96),)}, "'leaf_size'"),
            ({"ordering": "rcm", "ordering_params": (("leaf_size", 3),)}, "'leaf_size'"),
            ({"ordering": "mindeg", "ordering_params": (("aggressive", True),)}, "'aggressive'"),
            ({"ordering": "natural", "ordering_params": (("x", 1),)}, "'x'"),
            ({"ordering": "dissect", "ordering_params": (("leaf_size", [1]),)}, "scalars"),
            ({"ordering": ["amd"]}, "unknown ordering"),
            ({"task_graph": "magic"}, "'magic'"),
            ({"max_padding": 1.0}, "max_padding"),
            ({"max_padding": "0.4"}, "max_padding"),
            ({"max_supernode": 0}, "max_supernode"),
            ({"max_supernode": None}, "max_supernode"),
        ],
    )
    def test_every_rejection_is_typed(self, bad, names):
        # One type for every option SolverOptions refuses: a library error
        # that existing ``except ValueError`` callers still catch.
        with pytest.raises(DispatchError, match=names) as exc:
            SolverOptions(**bad)
        assert isinstance(exc.value, ReproError)
        assert isinstance(exc.value, ValueError)

    def test_known_ordering_params_accepted(self):
        o = SolverOptions(
            ordering="dissect", ordering_params=(("refine", False), ("leaf_size", 96))
        )
        assert o.ordering_kwargs() == {"leaf_size": 96, "refine": False}
        assert SolverOptions(ordering_params=(("aggressive", False),)).ordering == "amd"

    def test_amalgamation_bounds_at_their_limits_accepted(self):
        o = SolverOptions(max_padding=0.0, max_supernode=1)
        assert (o.max_padding, o.max_supernode) == (0.0, 1)


class TestLifecycle:
    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            lu(csc_from_dense(np.ones((2, 3))))

    def test_rejects_pattern_only(self):
        with pytest.raises(ShapeError):
            lu(random_sparse(5, density=0.5, seed=0).pattern_only())

    def test_rhs_shape_checked(self):
        s = solve_pipeline(random_pivot_matrix(10, 1))
        with pytest.raises(ShapeError):
            s.solve(np.ones(11))


class TestAccuracy:
    @pytest.mark.parametrize("seed", range(6))
    def test_residual_small(self, seed):
        a = random_pivot_matrix(40, seed)
        s = solve_pipeline(a)
        b = np.arange(1.0, 41.0)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-9

    @pytest.mark.parametrize("task_graph", ["eforest", "sstar"])
    @pytest.mark.parametrize("postorder", [True, False])
    def test_residual_across_options(self, task_graph, postorder):
        a = random_pivot_matrix(30, 5)
        s = solve_pipeline(a, task_graph=task_graph, postorder=postorder)
        b = np.ones(30)
        assert s.residual_norm(s.solve(b), b) < 1e-9

    def test_matches_scipy_spsolve(self):
        import scipy.sparse.linalg as spla

        a = paper_matrix("orsreg1", scale=0.15)
        s = solve_pipeline(a)
        b = np.sin(np.arange(a.n_cols))
        x = s.solve(b)
        x_ref = spla.spsolve(csc_to_scipy(a), b)
        assert np.max(np.abs(x - x_ref)) / max(1.0, np.max(np.abs(x_ref))) < 1e-8

    @pytest.mark.parametrize("name", ["sherman3", "lnsp3937", "goodwin"])
    def test_paper_analogs_solve(self, name):
        a = paper_matrix(name, scale=0.1)
        s = solve_pipeline(a)
        b = np.ones(a.n_cols)
        assert s.residual_norm(s.solve(b), b) < 1e-8


class TestStats:
    def test_stats_fields(self):
        a = random_pivot_matrix(30, 6)
        plan, _ = analyzed(a)
        st = plan.stats()
        assert st.n == 30
        assert st.nnz == a.nnz
        assert st.nnz_filled >= st.nnz
        assert st.fill_ratio >= 1.0
        assert 1 <= st.n_supernodes <= st.n_supernodes_raw
        assert st.n_btf_blocks >= 1
        assert st.n_tasks >= plan.bp.n_blocks
        assert st.mean_supernode_size >= 1.0

    def test_no_postorder_has_zero_btf(self):
        a = random_pivot_matrix(20, 7)
        plan, _ = analyzed(a, postorder=False)
        assert plan.stats().n_btf_blocks == 0

    def test_factorize_with_explicit_order(self):
        a = random_pivot_matrix(25, 8)
        plan, _ = analyzed(a)
        order = plan.graph.topological_order()
        s = refactorize_with_plan(plan, a, order=order)
        b = np.ones(25)
        assert s.residual_norm(s.solve(b), b) < 1e-9

"""Dense kernel tests against NumPy/SciPy oracles and against the
whole-panel column-loop kernels of ``loop_kernels``."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numeric.kernels import (
    lu_panel_flops,
    lu_panel_inplace,
    unit_lower_inverse,
    update_flops,
    upper_inverse,
)
from repro.util.errors import ShapeError, SingularMatrixError
from tests.numeric.loop_kernels import (
    lu_panel_flops_loop,
    lu_panel_loop,
    solve_unit_lower,
    solve_upper,
)


def split_lu(m, w):
    """``(L, U)`` of a factored ``(rows, w)`` panel."""
    rows = m.shape[0]
    return np.eye(rows, w) + np.tril(m, -1), np.triu(m[:w])


class TestPanelLU:
    @pytest.mark.parametrize("rows,w", [(4, 4), (8, 4), (12, 3), (5, 1)])
    def test_reconstructs_panel(self, rows, w):
        rng = np.random.default_rng(rows * 10 + w)
        m = rng.standard_normal((rows, w))
        orig = m.copy()
        order, _ = lu_panel_inplace(m, w)
        l_full, u = split_lu(m, w)
        assert np.allclose(l_full @ u, orig[order, :])

    def test_pivot_selects_max_magnitude(self):
        m = np.array([[1.0, 0.0], [-9.0, 1.0], [3.0, 2.0]])
        order, _ = lu_panel_inplace(m, 2)
        assert order[0] == 1  # row with |-9| chosen first

    def test_zero_column_raises(self):
        m = np.zeros((3, 2))
        m[:, 1] = 1.0
        with pytest.raises(SingularMatrixError):
            lu_panel_inplace(m, 2)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            lu_panel_inplace(np.ones((2, 3)), 3)  # rows < w
        with pytest.raises(ShapeError):
            lu_panel_inplace(np.ones((4, 2)), 3)  # width mismatch

    def test_matches_scipy_lu(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        m = a.copy()
        order, _ = lu_panel_inplace(m, 6)
        _, l_ref, u_ref = scipy.linalg.lu(a)
        # Same pivoted factorization up to the permutation convention.
        l = np.tril(m, -1) + np.eye(6)
        u = np.triu(m)
        assert np.allclose(l @ u, a[order, :])
        assert np.allclose(np.abs(np.diag(u)), np.abs(np.diag(u_ref)))


class TestRecursivePanelLU:
    """The recursion against its definition and against the column loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        w=st.integers(1, 40),
        extra=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_factors_the_pivoted_panel(self, w, extra, seed):
        # Continuous random values: pivot ties have probability zero, so
        # the loop and the recursion must agree on the pivot *order* even
        # though their roundings differ. ``extra == 0`` is ``rows == w``.
        rows = w + extra
        orig = np.random.default_rng(seed).standard_normal((rows, w))
        m = orig.copy()
        order, linv = lu_panel_inplace(m, w)
        l_full, u = split_lu(m, w)
        scale = np.abs(orig).max()
        assert np.abs(l_full @ u - orig[order]).max() <= 1e-12 * scale * w
        assert np.abs(np.tril(m, -1)).max(initial=0.0) <= 1.0
        assert sorted(order.tolist()) == list(range(rows))

        ref = orig.copy()
        assert np.array_equal(order, lu_panel_loop(ref, w))
        assert np.allclose(m, ref, rtol=1e-9, atol=1e-12)
        # The L⁻¹ the elimination builds on its tags is the one a reader
        # of the finished panel derives, bit for bit.
        assert np.array_equal(linv, unit_lower_inverse(m[:w]))

    @pytest.mark.parametrize("rows,w", [(1, 1), (7, 1), (5, 5), (13, 13), (40, 37)])
    def test_edge_shapes(self, rows, w):
        orig = np.random.default_rng(rows + w).standard_normal((rows, w))
        m, ref = orig.copy(), orig.copy()
        order, _ = lu_panel_inplace(m, w)
        assert np.array_equal(order, lu_panel_loop(ref, w))
        assert np.allclose(m, ref, rtol=1e-10, atol=1e-13)

    def test_zero_rows_are_left_untouched(self):
        # A zero row never wins a pivot search and its multipliers stay
        # zero: the kernel packs it out, so not even its signs of zero flip.
        rng = np.random.default_rng(11)
        m = rng.standard_normal((30, 6))
        zero = np.array([0, 7, 8, 19, 29])
        m[zero] = 0.0
        m[8] = -0.0
        ref = m.copy()
        order, _ = lu_panel_inplace(m, 6)
        assert np.array_equal(order, lu_panel_loop(ref, 6))
        below = zero[zero >= 6]
        assert np.array_equal(order[below], below)
        assert m[below].tobytes() == np.array([[0.0] * 6, [-0.0] * 6, [0.0] * 6, [0.0] * 6]).tobytes()
        assert np.allclose(m, ref, rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("col", [2, 9, 17])
    def test_zero_pivot_in_either_half_raises(self, col):
        # An all-zero column stays exactly zero under every update: col 2
        # dies inside the first base case, 9 in the left half's right
        # child, 17 in the right half.
        m = np.random.default_rng(col).standard_normal((30, 20))
        m[:, col] = 0.0
        with pytest.raises(SingularMatrixError, match=f"column {col}"):
            lu_panel_inplace(m, 20)


class TestTriangularInverses:
    def test_inverts_both_triangles(self):
        # Partial pivoting bounds every multiplier by 1, so L's strict lower
        # triangle is drawn from [-1, 1].
        rng = np.random.default_rng(3)
        for w in (1, 2, 3, 4, 5, 11, 32):
            d = np.tril(rng.uniform(-1, 1, (w, w)), -1) + np.triu(
                rng.standard_normal((w, w))
            ) + 4.0 * np.eye(w)
            linv, uinv = unit_lower_inverse(d), upper_inverse(d)
            eye = np.eye(w)
            assert np.allclose(linv @ (np.tril(d, -1) + eye), eye, atol=1e-12)
            assert np.allclose(np.triu(d) @ uinv, eye, atol=1e-10)
            assert not np.triu(linv, 1).any() and not np.tril(uinv, -1).any()

    def test_ignores_the_other_triangle(self):
        d = np.array([[7.0, 5.0], [2.0, 9.0]])
        linv, uinv = unit_lower_inverse(d), upper_inverse(d)
        assert np.allclose(linv, [[1.0, 0.0], [-2.0, 1.0]])
        assert np.allclose(uinv @ np.triu(d), np.eye(2))

    @pytest.mark.parametrize("w", [48, 64])
    def test_inverse_gemm_trsm_matches_substitution_at_worst_growth(self, w):
        # l_ij = −1 below the diagonal: the inverse's entries double per
        # subdiagonal (2^(w−2) in the corner), the worst a pivoted L gets.
        l = np.eye(w) - np.tril(np.ones((w, w)), -1)
        rhs = np.random.default_rng(w).standard_normal((w, 7))
        x_ref = solve_unit_lower(l, rhs)
        x = unit_lower_inverse(l) @ rhs
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()

    def test_upper_inverse_matches_back_substitution(self):
        rng = np.random.default_rng(8)
        u = np.triu(rng.standard_normal((24, 24))) + 5.0 * np.eye(24)
        rhs = rng.standard_normal((24, 3))
        x_ref = solve_upper(u, rhs)
        x = upper_inverse(u) @ rhs
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()


class TestTriangularKernels:
    """The substitution oracles themselves."""

    def test_unit_lower_solve(self):
        rng = np.random.default_rng(1)
        l = np.tril(rng.standard_normal((5, 5)), -1) + np.eye(5)
        b = rng.standard_normal((5, 3))
        x = solve_unit_lower(l, b)
        assert np.allclose(l @ x, b)

    def test_unit_lower_ignores_diagonal_values(self):
        l = np.array([[7.0, 0.0], [2.0, 9.0]])  # diagonal garbage
        b = np.array([[1.0], [4.0]])
        x = solve_unit_lower(l, b)
        assert np.allclose(x, [[1.0], [2.0]])

    def test_upper_solve(self):
        rng = np.random.default_rng(2)
        u = np.triu(rng.standard_normal((5, 5))) + 3 * np.eye(5)
        b = rng.standard_normal((5, 2))
        x = solve_upper(u, b)
        assert np.allclose(u @ x, b)

    def test_upper_singular_raises(self):
        u = np.triu(np.ones((3, 3)))
        u[1, 1] = 0.0
        with pytest.raises(SingularMatrixError):
            solve_upper(u, np.ones((3, 1)))


class TestFlopCounts:
    def test_panel_flops_square(self):
        # Dense n x n LU ~ 2/3 n^3.
        n = 30
        flops = lu_panel_flops(n, n)
        assert abs(flops - 2 * n**3 / 3) / (2 * n**3 / 3) < 0.15

    def test_panel_flops_monotone(self):
        assert lu_panel_flops(20, 5) > lu_panel_flops(10, 5)
        assert lu_panel_flops(20, 5) > lu_panel_flops(20, 3)

    def test_panel_flops_closed_form_equals_column_sum(self):
        for rows in range(81):
            for w in range(65):
                assert lu_panel_flops(rows, w) == lu_panel_flops_loop(rows, w), (rows, w)

    def test_update_flops(self):
        assert update_flops(2, 3, 4) == 2 * 2 * 4 + 2 * 3 * 2 * 4
        assert update_flops(1, 0, 1) == 1

    def test_zero_width(self):
        assert lu_panel_flops(5, 0) == 0

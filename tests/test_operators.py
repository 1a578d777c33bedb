import math

import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds

from wsld.coefficients import DEFAULT_TUPLE, ShiftTuple, branch_weights, lubich_coeffs
from wsld.operators import (
    Grid1D,
    UnsupportedPowerError,
    apply_stencil,
    assemble_left,
    rl_exact_poly,
    table_for_grid,
)

DOMAIN = (0.0, 2.0)

# u(x) = x^8 (2-x)^8 expanded in powers of x: smooth test function vanishing
# to 8th order at both boundaries
_P8 = [(8 + j, math.comb(8, j) * 2.0 ** (8 - j) * (-1) ** j) for j in range(9)]
P8_POWERS = [p for p, _ in _P8]
P8_COEFFS = [c for _, c in _P8]


def u8(x):
    return x**8 * (2.0 - x) ** 8


class TestGrid1D:
    def test_spacing(self):
        g = Grid1D(0.0, 2.0, 20)
        assert g.h == pytest.approx(0.1, abs=0)
        assert g.n_interior == 19
        np.testing.assert_allclose(g.interior_nodes(), np.arange(1, 20) * 0.1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 1)

    @pytest.mark.parametrize(
        "name,args",
        [("x_left", (np.nan, 1.0, 10)), ("x_left", (-np.inf, 1.0, 10)),
         ("x_right", (0.0, np.inf, 10)), ("x_right", (0.0, np.nan, 10))],
    )
    def test_non_finite_end_rejected(self, name, args):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            Grid1D(*args)

    @pytest.mark.parametrize("n_cells", [10.7, 10.0, np.float64(10.0), "10"])
    def test_non_integral_n_cells_rejected(self, n_cells):
        with pytest.raises(ValueError, match="^n_cells must be an integer"):
            Grid1D(0.0, 1.0, n_cells)

    @pytest.mark.parametrize("n_cells", [True, False, np.True_])
    def test_bool_n_cells_rejected(self, n_cells):
        with pytest.raises(ValueError, match="^n_cells must be an integer"):
            Grid1D(0.0, 1.0, n_cells)

    def test_numpy_integer_n_cells_accepted(self):
        g = Grid1D(0.0, 1.0, np.int64(10))
        assert g.n_interior == 9 and len(g.interior_nodes()) == 9


class TestAssembly:
    def test_unshifted_is_lower_triangular_with_known_eigenvalues(self):
        alpha = 1.5
        op = assemble_left(alpha, (0,), Grid1D(0.0, 1.0, 17))
        assert np.allclose(np.triu(op, 1), 0.0)
        eigs = np.linalg.eigvals(op)
        np.testing.assert_allclose(eigs.real, 1.5**alpha, rtol=1e-12)
        np.testing.assert_allclose(eigs.imag, 0.0, atol=1e-12)

    @pytest.mark.parametrize("shifts", [(1, -2), (1, 2, 1, -2), DEFAULT_TUPLE])
    def test_entries_match_unaligned_branch_sums(self, shifts):
        # oracle: entry(i, j) = sum over branches of w * q_{i-j+t}, built
        # without the common-alignment bookkeeping
        alpha = 1.3
        grid = Grid1D(0.0, 2.0, 6)
        op = assemble_left(alpha, shifts, grid)
        n = grid.n_interior
        q = lubich_coeffs(alpha, n + 10)
        expected = np.zeros((n, n))
        for w, t in branch_weights(alpha, ShiftTuple.of(shifts)):
            for i in range(n):
                for j in range(n):
                    k = i - j + t
                    if k >= 0:
                        expected[i, j] += w * q[k]
        np.testing.assert_allclose(op, expected, rtol=1e-13, atol=1e-15)

    def test_toeplitz_structure(self):
        a = assemble_left(1.7, DEFAULT_TUPLE, Grid1D(0.0, 2.0, 12))
        np.testing.assert_array_equal(a[:-1, :-1], a[1:, 1:])

    @pytest.mark.parametrize(
        "shifts,n_cells", [((0,), 2), (DEFAULT_TUPLE, 4), (DEFAULT_TUPLE, 41), ((1, -3), 17)],
        ids=["unshifted-n1", "default-n3", "default-n40", "1,-3-n16"],
    )
    def test_strided_view_over_its_diagonals_equals_dense_toeplitz(self, shifts, n_cells, dense_left):
        grid = Grid1D(0.0, 2.0, n_cells)
        op = assemble_left(1.7, shifts, grid)
        n = grid.n_interior
        np.testing.assert_array_equal(op, dense_left(1.7, shifts, grid))
        assert not op.flags.writeable
        low, high = byte_bounds(op)
        assert high - low == (2 * n - 1) * op.itemsize

    def test_is_read_only(self):
        op = assemble_left(1.5, DEFAULT_TUPLE, Grid1D(0.0, 2.0, 15))
        assert not op.flags.writeable
        assert not op.T.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 0.0

    @pytest.mark.parametrize("shifts,n_cells", [(DEFAULT_TUPLE, 2), (DEFAULT_TUPLE, 3), ((1, -3), 4)])
    def test_rejects_grid_not_wider_than_max_shift(self, shifts, n_cells):
        n, m = n_cells - 1, ShiftTuple.of(shifts).max_shift
        with pytest.raises(ValueError, match=f"^grid has {n} interior nodes; .* max shift {m}"):
            assemble_left(1.5, shifts, Grid1D(0.0, 1.0, n_cells))

    @pytest.mark.parametrize("shifts", [DEFAULT_TUPLE, (1, -3)])
    def test_smallest_grid_assembles(self, shifts):
        m = ShiftTuple.of(shifts).max_shift
        assert assemble_left(1.5, shifts, Grid1D(0.0, 1.0, m + 2)).shape == (m + 1, m + 1)

    @pytest.mark.parametrize("n_cells", [32, 64, 128])
    def test_row_sums_shrink_with_resolution(self, n_cells, shrink={}):
        op = assemble_left(1.5, DEFAULT_TUPLE, Grid1D(0.0, 2.0, n_cells))
        shrink[n_cells] = np.max(np.abs(op.sum(axis=1)))
        if len(shrink) == 3:
            assert shrink[128] < shrink[64] < shrink[32]


class TestApply:
    def test_zero_in_zero_out(self):
        grid = Grid1D(0.0, 2.0, 10)
        table = table_for_grid(1.5, DEFAULT_TUPLE, grid)
        out = apply_stencil("left", table, grid, np.zeros(9))
        np.testing.assert_array_equal(out, 0.0)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_dense_matvec(self, side):
        alpha = 1.5
        grid = Grid1D(0.0, 2.0, 17)
        rng = np.random.default_rng(42)
        u = rng.normal(size=grid.n_interior)
        op = assemble_left(alpha, DEFAULT_TUPLE, grid)
        if side == "left":
            dense = grid.h**-alpha * (op @ u)
        else:
            dense = grid.h**-alpha * (op.T @ u)
        fast = apply_stencil(side, table_for_grid(alpha, DEFAULT_TUPLE, grid), grid, u)
        np.testing.assert_allclose(fast, dense, rtol=1e-12)

    def test_reflection_identity(self):
        grid = Grid1D(0.0, 2.0, 14)
        table = table_for_grid(1.3, DEFAULT_TUPLE, grid)
        rng = np.random.default_rng(7)
        u = rng.normal(size=grid.n_interior)
        left = apply_stencil("left", table, grid, u)
        right_rev = apply_stencil("right", table, grid, u[::-1])[::-1]
        np.testing.assert_allclose(left, right_rev, rtol=1e-13)

    def test_length_mismatch(self):
        grid = Grid1D(0.0, 2.0, 10)
        table = table_for_grid(1.5, DEFAULT_TUPLE, grid)
        with pytest.raises(ValueError):
            apply_stencil("left", table, grid, np.zeros(5))

    def test_bad_side(self):
        grid = Grid1D(0.0, 2.0, 10)
        table = table_for_grid(1.5, DEFAULT_TUPLE, grid)
        with pytest.raises(ValueError):
            apply_stencil("up", table, grid, np.zeros(9))

    def test_table_too_short(self):
        # a 5-cell grid's table has 9 entries; 9 interior nodes need n + m = 11
        table = table_for_grid(1.5, DEFAULT_TUPLE, Grid1D(0.0, 2.0, 5))
        with pytest.raises(ValueError, match="^coefficient table too short for this grid$"):
            apply_stencil("left", table, Grid1D(0.0, 2.0, 10), np.zeros(9))


class TestExactPolyDerivative:
    def test_single_monomial(self):
        # Gamma(5)/Gamma(3.5) * 1; Gamma(3.5) = 1.875 sqrt(pi) exactly
        value = rl_exact_poly("left", 1.5, [4], [1.0], 1.0, DOMAIN)
        assert value == pytest.approx(24.0 / (1.875 * math.sqrt(math.pi)), rel=1e-14)
        assert value == pytest.approx(7.2216267, abs=1e-7)

    def test_vanishes_at_left_edge(self):
        assert rl_exact_poly("left", 1.7, [4, 6], [2.0, 1.0], 0.0, DOMAIN) == 0.0

    def test_right_mirrors_left(self):
        x = np.linspace(0.0, 2.0, 9)
        left = rl_exact_poly("left", 1.4, [4, 5], [1.0, -0.5], x, DOMAIN)
        right = rl_exact_poly("right", 1.4, [4, 5], [1.0, -0.5], 2.0 - x, DOMAIN)
        np.testing.assert_allclose(left, right, rtol=1e-14)

    def test_benchmark_bracket_term_by_term(self):
        # the two-sided combination equals the monomial-rule sum taken one
        # power at a time
        alpha, x = 1.5, 1.0
        powers = [4, 5, 6, 7, 8]
        coeffs = [16.0, -32.0, 24.0, -8.0, 1.0]
        combined = rl_exact_poly("left", alpha, powers, coeffs, x, DOMAIN) + 2.0 * rl_exact_poly(
            "right", alpha, powers, coeffs, x, DOMAIN
        )
        termwise = sum(
            c * (rl_exact_poly("left", alpha, [p], [1.0], x, DOMAIN)
                 + 2.0 * rl_exact_poly("right", alpha, [p], [1.0], x, DOMAIN))
            for p, c in zip(powers, coeffs)
        )
        assert combined == pytest.approx(termwise, rel=1e-13)

    def test_rejects_low_power(self):
        with pytest.raises(UnsupportedPowerError):
            rl_exact_poly("left", 1.5, [1], [1.0], 0.5, DOMAIN)

    def test_rejects_point_outside_domain(self):
        with pytest.raises(ValueError):
            rl_exact_poly("left", 1.5, [4], [1.0], 3.0, DOMAIN)

    @pytest.mark.parametrize(
        "side,powers,message",
        [("left", [4, 5], "^powers and coeffs must have equal length$"),
         ("up", [4], "^side must be 'left' or 'right', got 'up'$")],
        ids=["lengths", "side"],
    )
    def test_rejects_bad_arguments(self, side, powers, message):
        with pytest.raises(ValueError, match=message):
            rl_exact_poly(side, 1.5, powers, [1.0], 0.5, DOMAIN)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("x", [np.nan, np.array([1.0, np.nan])], ids=["scalar", "array"])
    def test_rejects_nan_point(self, side, x):
        # NaN compares false both ways, so only a test for inclusion rejects it
        with pytest.raises(ValueError, match="^evaluation point outside the domain$"):
            rl_exact_poly(side, 1.5, [2], [1.0], x, (0.0, 1.0))

    @pytest.mark.parametrize("power", [2.5, True, "4"])
    def test_rejects_non_integer_power(self, power):
        # 2.5 was truncated to 2 and gave the p = 2 value
        with pytest.raises(ValueError, match=r"^powers\[1\] must be an integer, got "):
            rl_exact_poly("left", 1.5, [4, power], [1.0, 1.0], 0.5, DOMAIN)
        assert rl_exact_poly("left", 1.5, [np.int64(4)], [1.0], 1.0, DOMAIN) == (
            rl_exact_poly("left", 1.5, [4], [1.0], 1.0, DOMAIN)
        )


class TestConsistencyOrder:
    @pytest.mark.parametrize("shifts,order", [((1, 2), 2), ((1, 2, 1, 0), 3)])
    def test_observed_rate(self, shifts, order):
        # full order sweep over alphas lives in the acceptance suite
        alpha = 1.5
        errs = []
        for n_cells in (64, 128):
            grid = Grid1D(*DOMAIN, n_cells)
            x = grid.interior_nodes()
            table = table_for_grid(alpha, shifts, grid)
            numeric = apply_stencil("left", table, grid, u8(x))
            exact = rl_exact_poly("left", alpha, P8_POWERS, P8_COEFFS, x, DOMAIN)
            errs.append(np.max(np.abs(numeric - exact)))
        rate = np.log(errs[0] / errs[1]) / np.log(2.0)
        assert order - 0.5 <= rate <= order + 0.5


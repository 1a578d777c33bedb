import numpy as np
import pytest
from scipy.special import binom

from wsld.coefficients import (
    CoefficientTable,
    DEFAULT_TUPLE,
    DegenerateTupleError,
    ShiftTuple,
    branch_weights,
    grunwald_coeffs,
    lubich_coeffs,
    stencil_coeffs,
    validate_order,
    weights_order2,
    weights_order3,
    weights_order4,
)
from wsld.spectral import CERTIFIED_TUPLES, generating_function_series

ALPHAS = [1.1, 1.3, 1.5, 1.7, 1.9]


def lemma_closed_forms(alpha):
    """First six q values from the factored closed forms (test oracle)."""
    c = 1.5**alpha
    return np.array(
        [
            c,
            -c * 4 * alpha / 3,
            c * alpha * (8 * alpha - 5) / 9,
            c * 4 * alpha * (alpha - 1) * (7 - 8 * alpha) / 81,
            c * alpha * (alpha - 1) * (64 * alpha**2 - 176 * alpha + 123) / 486,
            c * 2 * alpha * (alpha - 1) * (2 - alpha) * (64 * alpha**2 - 208 * alpha + 183) / 3645,
        ]
    )


class TestValidateOrder:
    def test_accepts_interior(self):
        assert validate_order(1.5) == 1.5

    @pytest.mark.parametrize("bad", [1.0, 2.0, 0.5, 2.5, -1.0])
    def test_rejects_outside(self, bad):
        with pytest.raises(ValueError):
            validate_order(bad)


class TestShiftTuple:
    def test_order_from_length(self):
        assert ShiftTuple((1,)).order == 1
        assert ShiftTuple((1, 2)).order == 2
        assert ShiftTuple((1, 2, 1, -2)).order == 3
        assert DEFAULT_TUPLE.order == 4

    def test_max_shift(self):
        assert DEFAULT_TUPLE.max_shift == 2
        assert ShiftTuple((1, 2, 1, -3, 1, 2, 1, -2)).max_shift == 3
        assert ShiftTuple((0,)).max_shift == 0

    def test_bad_length(self):
        with pytest.raises(ValueError):
            ShiftTuple((1, 2, 3))

    def test_degenerate_pair(self):
        with pytest.raises(DegenerateTupleError):
            ShiftTuple((2, 2))

    def test_degenerate_quadruple(self):
        with pytest.raises(DegenerateTupleError):
            ShiftTuple((1, 2, 2, 1))  # r*s == p*q

    def test_of_passthrough(self):
        assert ShiftTuple.of(DEFAULT_TUPLE) is DEFAULT_TUPLE
        assert ShiftTuple.of([1, 2]) == ShiftTuple((1, 2))
        # numpy ints are integers too, stored as Python ints
        shifts = ShiftTuple.of(np.array([1, 2])).shifts
        assert shifts == (1, 2) and all(type(s) is int for s in shifts)

    @pytest.mark.parametrize(
        "shifts,index", [((1.9, 2.2), 0), (("1", "2"), 0), ((True, 2), 0), ((1, 2.0), 1)]
    )
    def test_rejects_non_integer_shifts(self, shifts, index):
        # rejected, not truncated or parsed into (1, 2); a bool is not an integer
        with pytest.raises(ValueError, match=rf"^shifts\[{index}\] must be an integer, got "):
            ShiftTuple(shifts)


class TestGrunwald:
    def test_k0(self):
        assert grunwald_coeffs(1.3, 0).tolist() == [1.0]

    def test_first_is_minus_alpha(self):
        assert grunwald_coeffs(1.5, 1)[1] == pytest.approx(-1.5, abs=0)

    def test_second_value(self):
        # oracle: g_2 = alpha (alpha - 1) / 2 from the binomial formula
        assert grunwald_coeffs(1.5, 2)[2] == pytest.approx(0.375, rel=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_binomial_oracle(self, alpha):
        k = np.arange(201)
        oracle = (-1.0) ** k * binom(alpha, k)
        np.testing.assert_allclose(grunwald_coeffs(alpha, 200), oracle, rtol=1e-12)

    def test_negative_k_max(self):
        with pytest.raises(ValueError):
            grunwald_coeffs(1.5, -1)
        # a non-integer count is named, not truncated (True once gave lubich 2 terms)
        for count in (2.5, True, "3"):
            with pytest.raises(ValueError, match=r"^k_max must be an integer, got "):
                grunwald_coeffs(1.5, count)
            with pytest.raises(ValueError, match=r"^k_max must be an integer, got "):
                lubich_coeffs(1.5, count)
            with pytest.raises(ValueError, match=r"^k_max must be an integer, got "):
                stencil_coeffs(1.5, (1, 2), count)
            with pytest.raises(ValueError, match=r"^n_terms must be an integer, got "):
                generating_function_series((1, 2), 1.5, 0.3, n_terms=count)
        assert len(lubich_coeffs(1.5, np.int64(3))) == 4


class TestLubich:
    def test_q0(self):
        assert lubich_coeffs(1.5, 0)[0] == pytest.approx(1.5**1.5, rel=1e-15)
        assert lubich_coeffs(1.5, 0)[0] == pytest.approx(1.8371173, rel=1e-7)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_q1(self, alpha):
        assert lubich_coeffs(alpha, 1)[1] == pytest.approx(
            -(1.5**alpha) * 4 * alpha / 3, rel=1e-14
        )

    def test_q2_spot(self):
        # oracle: (3/2)^alpha * alpha (8 alpha - 5) / 9 at alpha = 1.5
        assert lubich_coeffs(1.5, 2)[2] == pytest.approx(2.1433035, rel=1e-7)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_closed_forms(self, alpha):
        q = lubich_coeffs(alpha, 5)
        np.testing.assert_allclose(q, lemma_closed_forms(alpha), rtol=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_sign_pattern(self, alpha):
        q = lubich_coeffs(alpha, 5)
        assert q[0] > 0 and q[1] < 0 and q[2] > 0 and q[3] < 0 and q[4] > 0 and q[5] > 0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_convolution_oracle(self, alpha):
        # brute force: multiply the power series of (1-z)^a and (1-z/3)^a
        k = np.arange(101)
        s1 = (-1.0) ** k * binom(alpha, k)
        s3 = (-1.0 / 3.0) ** k * binom(alpha, k)
        oracle = (1.5**alpha) * np.convolve(s1, s3)[:101]
        np.testing.assert_allclose(lubich_coeffs(alpha, 100), oracle, rtol=1e-12)

    def test_partial_sum_small(self):
        assert abs(lubich_coeffs(1.5, 5000).sum()) < 1e-4

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_partial_sums_decrease(self, alpha):
        q = lubich_coeffs(alpha, 5000)
        sums = np.abs(np.cumsum(q))
        assert sums[5000] < sums[500] < sums[50]


class TestWeights:
    def test_order2_values(self):
        assert weights_order2(1, 2) == pytest.approx((2.0, -1.0), abs=0)
        assert weights_order2(1, -2) == pytest.approx((2 / 3, 1 / 3), rel=1e-15)

    @pytest.mark.parametrize("p", range(-3, 4))
    @pytest.mark.parametrize("q", range(-3, 4))
    def test_order2_sum(self, p, q):
        if p == q:
            return
        w_p, w_q = weights_order2(p, q)
        assert abs(w_p + w_q - 1.0) < 1e-14

    def test_order2_degenerate(self):
        with pytest.raises(DegenerateTupleError):
            weights_order2(3, 3)

    def test_order3_values(self):
        assert weights_order3(1.5, 1, 2, 1, -2) == pytest.approx((0.25, 0.75), abs=1e-15)
        w_pq, w_rs = weights_order3(1.1, 1, 2, 1, 0)
        assert w_pq == pytest.approx(-11 / 30, rel=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("quad", [(1, 2, 1, -2), (1, 2, 1, 0), (1, -1, 1, -2)])
    def test_order3_sum(self, alpha, quad):
        w_pq, w_rs = weights_order3(alpha, *quad)
        assert abs(w_pq + w_rs - 1.0) < 1e-14

    def test_order3_degenerate(self):
        with pytest.raises(DegenerateTupleError):
            weights_order3(1.5, 1, 2, 2, 1)

    def test_order4_value(self):
        # oracle: substitution with a = -2, b = -42 a, ab = -4, bb = 96 - 52 a
        assert weights_order4(1.5, DEFAULT_TUPLE) == pytest.approx((0.125, 0.875), abs=1e-15)

    def test_order4_value_alpha11(self):
        alpha = 1.1
        a, b = -2.0, -42.0 * alpha
        ab, bb = -4.0, 96.0 - 52.0 * alpha
        expected = a * bb / (a * bb - ab * b)
        w1, w2 = weights_order4(alpha, DEFAULT_TUPLE)
        assert np.isfinite(w1) and np.isfinite(w2)
        assert w1 == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_order4_sum(self, alpha):
        tup = ShiftTuple((1, 2, 1, -3, 1, 2, 1, -2))
        w1, w2 = weights_order4(alpha, tup)
        assert abs(w1 + w2 - 1.0) < 1e-14

    def test_order4_needs_eight_shifts(self):
        with pytest.raises(ValueError, match=r"^need an 8-entry shift tuple, got \(1,2,1,-2\)$"):
            weights_order4(1.5, (1, 2, 1, -2))

    def test_order4_alpha_dependent_degeneracy(self):
        # a*bb - ab*b = 72 - 48 alpha vanishes at alpha = 1.5 for this tuple
        tup = ShiftTuple((1, 2, 1, -1, 1, -1, 1, -2))
        with pytest.raises(DegenerateTupleError):
            weights_order4(1.5, tup)
        w1, w2 = weights_order4(1.4, tup)
        assert abs(w1 + w2 - 1.0) < 1e-12


class TestBranchWeights:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize(
        "shifts", [(1,), (1, 2), (1, 2, 1, -2), (1, 2, 1, 0, 1, 2, 1, -2)]
    )
    def test_total_weight_is_one(self, alpha, shifts):
        total = sum(w for w, _ in branch_weights(alpha, shifts))
        assert total == pytest.approx(1.0, abs=1e-13)


class TestStencil:
    def test_order1_positive_shift_is_plain_sequence(self):
        # with a single shift p >= 0 the alignment offset vanishes
        for p in (1, 2):
            table = stencil_coeffs(1.4, (p,), 12)
            np.testing.assert_array_equal(table.phi, lubich_coeffs(1.4, 12))

    def test_order2_leading_entry(self):
        # (p, q) = (1, 2): phi_0 = w_p q_{-1} + w_q q_0 = -q_0
        table = stencil_coeffs(1.5, (1, 2), 8)
        assert table.phi[0] == pytest.approx(-(1.5**1.5), rel=1e-15)

    @pytest.mark.parametrize(
        "shifts",
        [(1,), (1, 2), (1, -2), (1, 2, 1, -2), DEFAULT_TUPLE, (1, 2, 1, -3, 1, 2, 1, -2)],
    )
    def test_tail_sum_vanishes(self, shifts):
        table = stencil_coeffs(1.5, shifts, 5000)
        assert abs(table.phi.sum()) < 1e-3

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_branch_exchange_symmetry(self, alpha):
        # swapping the two quadruples swaps the weights and leaves phi fixed
        original = stencil_coeffs(alpha, (1, 2, 1, 0, 1, 2, 1, -2), 40).phi
        swapped = stencil_coeffs(alpha, (1, 2, 1, -2, 1, 2, 1, 0), 40).phi
        np.testing.assert_allclose(swapped, original, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "shifts",
        [*CERTIFIED_TUPLES, (0,), (1,), (2,), (3,), (1, 2), (2, 3), (1, -2), (3, -3),
         (1, 2, 1, -2), (2, 3, 1, -3), (1, 2, 1, -3, 1, 2, 1, -2), (2, 3, 1, -3, 1, 2, 1, -2)],
        ids=str,
    )
    def test_short_table_is_prefix_of_long_one(self, shifts):
        # a branch may start past k_max (k0 = m - t up to 6 here): it then adds
        # nothing, so every k_max gives the leading entries of a longer table
        for alpha in (1.1, 1.5, 1.9):
            try:
                full = stencil_coeffs(alpha, shifts, 40).phi
            except DegenerateTupleError:  # (1,2,1,-1,1,-1,1,-2) at 1.5, by design
                continue
            for k_max in range(40):
                np.testing.assert_array_equal(
                    stencil_coeffs(alpha, shifts, k_max).phi, full[: k_max + 1]
                )

    def test_table_fields(self):
        table = stencil_coeffs(1.5, DEFAULT_TUPLE, 10)
        assert isinstance(table, CoefficientTable)
        assert table.length == 11
        assert table.max_shift == 2
        with pytest.raises(ValueError):
            table.phi[0] = 0.0


def lubich_by_loop(alpha, k_max):
    """lubich_coeffs as one pass per m, as it was first written: the oracle
    for the chunked product."""
    g = grunwald_coeffs(alpha, k_max)
    q = np.zeros(k_max + 1)
    for m in range(min(k_max, 60) + 1):
        q[m:] += (3.0**-m) * g[m] * g[: k_max + 1 - m]
    q *= 1.5**alpha
    return q


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestLubichChunkedProduct:
    @pytest.mark.parametrize("k_max", [0, 1, 5, 59, 60, 61, 100, 402, 3001])
    def test_bit_identical_to_loop(self, k_max):
        for alpha in np.linspace(1.01, 1.99, 99):
            assert same_bits(lubich_coeffs(alpha, k_max), lubich_by_loop(alpha, k_max))

    # 17189 columns of 61 terms fill one chunk; 17190 take two
    @pytest.mark.parametrize("k_max", [17188, 17189, 100_000])
    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
    def test_bit_identical_to_loop_across_chunks(self, k_max, alpha):
        assert same_bits(lubich_coeffs(alpha, k_max), lubich_by_loop(alpha, k_max))

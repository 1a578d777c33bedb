import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.integrate import quad
from scipy.special import gamma

import wsld.verification as verification
from wsld.coefficients import DEFAULT_TUPLE
from wsld.verification import (
    PROFILE_COEFFS,
    PROFILE_POWERS,
    _two_sided_rl,
    convergence_study,
    manufactured_1d,
    manufactured_2d,
    max_error,
    observed_rate,
    profile,
)
from wsld.operators import Grid1D
from wsld.solvers import ADI_VARIANTS, Problem1D, solve_1d, solve_2d

ALPHA = 1.3


def d2_profile(s):
    """Second derivative of the bump, by the power rule."""
    return sum(
        c * p * (p - 1) * s ** (p - 2) for p, c in zip(PROFILE_POWERS, PROFILE_COEFFS)
    )


def rl_quadrature(side, alpha, x):
    """Fractional derivative of the bump by adaptive quadrature (oracle).

    Uses the weakly-singular integral of the second derivative; valid here
    because the bump and its slope vanish at both boundaries.
    """
    if side == "left":
        val, _ = quad(d2_profile, 0.0, x, weight="alg", wvar=(0.0, 1.0 - alpha), limit=200)
    else:
        val, _ = quad(d2_profile, x, 2.0, weight="alg", wvar=(1.0 - alpha, 0.0), limit=200)
    return val / gamma(2.0 - alpha)


def forcing_oracle_1d(alpha, x, t):
    space = x**alpha * (rl_quadrature("left", alpha, x) + 2.0 * rl_quadrature("right", alpha, x))
    return np.cos(t + 1.0) * profile(np.asarray(x)) - np.sin(t + 1.0) * space


class TestProfile:
    def test_expansion_coefficients(self):
        # oracle: expand x^4 (2-x)^4 with polynomial arithmetic
        expanded = P.polymul(P.polypow([0.0, 1.0], 4), P.polypow([2.0, -1.0], 4))
        expected = np.zeros(9)
        expected[list(PROFILE_POWERS)] = PROFILE_COEFFS
        np.testing.assert_allclose(expanded, expected, atol=1e-12)
        assert PROFILE_COEFFS == (16.0, -32.0, 24.0, -8.0, 1.0)

    def test_profile_matches_expansion(self):
        x = np.linspace(0.0, 2.0, 17)
        series = sum(c * x**p for p, c in zip(PROFILE_POWERS, PROFILE_COEFFS))
        np.testing.assert_allclose(profile(x), series, rtol=1e-12)


class TestManufactured1D:
    def test_initial_condition(self):
        case = manufactured_1d(1.5)
        p = case.problem(10, n_steps=1)
        x = p.grid.interior_nodes()
        np.testing.assert_allclose(p.u0, np.sin(1.0) * profile(x), rtol=1e-14)

    def test_stability_proportionality(self):
        case = manufactured_1d(1.5)
        p = case.problem(10, n_steps=1)
        np.testing.assert_allclose(p.d_minus, 2.0 * p.d_plus, rtol=1e-14)

    @pytest.mark.parametrize("x", [0.3, 0.7, 1.0, 1.4, 1.9])
    def test_forcing_against_quadrature_oracle(self, x):
        case = manufactured_1d(ALPHA)
        t = 0.6
        got = case.forcing(np.array([x]), t)[0]
        want = forcing_oracle_1d(ALPHA, x, t)
        assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("t_final", [np.inf, np.nan, -1.0])
@pytest.mark.parametrize(
    "make", [lambda: manufactured_1d(1.5), lambda: manufactured_2d(1.2, 1.8)], ids=["1d", "2d"]
)
@pytest.mark.parametrize("n_steps", [None, 4])
def test_bad_t_final_rejected_by_name(make, t_final, n_steps):
    # with n_steps None the default step count would divide t_final first
    case = make()
    case.t_final = t_final
    with pytest.raises(ValueError, match="^t_final must be finite and nonnegative$"):
        case.problem(10, n_steps)


@pytest.mark.parametrize(
    "t_final,n_steps", [(1e300, None), (1e308, None), (1.0, 2**53 + 1)],
    ids=["t-final", "t-final-overflow", "n-steps"],
)
@pytest.mark.parametrize(
    "make", [lambda: manufactured_1d(1.5), lambda: manufactured_2d(1.2, 1.8)], ids=["1d", "2d"]
)
def test_unrepresentable_step_count_rejected_by_name(make, t_final, n_steps):
    # 1e300 / h**2 asks for ~1.6e301 steps and 1e308 / h**2 overflows; past
    # 2**53 steps the half-step times are not distinct, so the problem refuses
    case = make()
    case.t_final = t_final
    with pytest.raises(ValueError, match=r"^n_steps must be at most 2\*\*53$"):
        case.problem(8, n_steps)


@pytest.mark.parametrize(
    "make", [lambda: manufactured_1d(1.5), lambda: manufactured_2d(1.2, 1.8)], ids=["1d", "2d"]
)
def test_bool_step_count_rejected_by_name(make):
    # bool is an Integral; True would run one step and keep n_steps = True
    with pytest.raises(ValueError, match="^n_steps must be an integer, got True$"):
        make().problem(8, True)


def test_unrepresentable_step_count_rejected_in_study():
    with pytest.raises(ValueError, match=r"^n_steps must be at most 2\*\*53$"):
        convergence_study(manufactured_1d(1.5), h_list=[1 / 4], tau_law=lambda h: 1e-320)


class TestManufactured2D:
    def test_initial_condition(self):
        case = manufactured_2d(1.2, 1.8)
        p = case.problem(8, n_steps=1)
        x = p.grid_x.interior_nodes()[:, None]
        y = p.grid_y.interior_nodes()[None, :]
        np.testing.assert_allclose(p.u0, np.sin(1.0) * profile(x) * profile(y), rtol=1e-14)

    def test_forcing_vanishes_at_corners(self):
        case = manufactured_2d(1.2, 1.8)
        for x in (0.0, 2.0):
            for y in (0.0, 2.0):
                assert case.forcing(np.array(x), np.array(y), 0.5) == 0.0

    @pytest.mark.parametrize("point", [(0.4, 1.1), (1.0, 1.0), (1.7, 0.3)])
    def test_forcing_against_quadrature_oracle(self, point):
        alpha, beta = 1.3, 1.6
        case = manufactured_2d(alpha, beta)
        x, y = point
        t = 0.25
        got = case.forcing(np.array(x), np.array(y), t)
        space = (
            x**alpha
            * (rl_quadrature("left", alpha, x) + 2.0 * rl_quadrature("right", alpha, x))
            * profile(np.array(y))
            + profile(np.array(x))
            * y**beta
            * (rl_quadrature("left", beta, y) + 2.0 * rl_quadrature("right", beta, y))
        )
        want = np.cos(t + 1.0) * profile(np.array(x)) * profile(np.array(y)) - np.sin(t + 1.0) * space
        assert got == pytest.approx(want, rel=1e-6)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestProblemConstruction:
    # the coefficients and u0 as written out per dimension before the
    # problems took their node layout from the 1D interior nodes

    def test_1d_matches_explicit_construction(self):
        case = manufactured_1d(1.35)
        p = case.problem(14, 5)
        x = p.grid.interior_nodes()
        assert_same_bits(p.d_plus, x**1.35)
        assert_same_bits(p.d_minus, 2.0 * x**1.35)
        assert_same_bits(p.u0, case.exact(x, 0.0))

    def test_2d_matches_explicit_construction(self):
        alpha, beta = 1.25, 1.85  # alpha != beta: a swapped axis shows
        case = manufactured_2d(alpha, beta)
        p = case.problem(11, 4)
        x = p.grid_x.interior_nodes()[:, None]
        y = p.grid_y.interior_nodes()[None, :]
        assert_same_bits(p.d_plus, (x**alpha).ravel())
        assert_same_bits(p.d_minus, 2.0 * (x**alpha).ravel())
        assert_same_bits(p.e_plus, (y**beta).ravel())
        assert_same_bits(p.e_minus, 2.0 * (y**beta).ravel())
        assert_same_bits(p.u0, case.exact(x, y, 0.0))


def fresh_case(dim):
    return manufactured_1d(1.3) if dim == 1 else manufactured_2d(1.3, 1.7)


def node_args(dim, n_cells):
    """Interior nodes as the solvers pass them: (x,) or (x column, y row)."""
    s = np.linspace(0.0, 2.0, n_cells + 1)[1:-1]
    if dim == 1:
        return (s,)
    return (s[:, None].copy(), np.linspace(0.0, 2.0, n_cells + 3)[None, 1:-1])


def assert_as_fresh(case, args, t):
    """The case's forcing equals the first call on a fresh case, bit for bit."""
    got = case.forcing(*args, t)
    want = fresh_case(case.dimension).forcing(*(a.copy() for a in args), t)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [1, 2])
class TestForcingMemo:
    def test_interleaved_grids(self, dim):
        case = fresh_case(dim)
        a, b = node_args(dim, 10), node_args(dim, 16)
        for args, t in ((a, 0.1), (b, 0.5), (a, 0.9), (a, 0.2)):
            assert_as_fresh(case, args, t)

    def test_array_mutated_in_place(self, dim):
        case = fresh_case(dim)
        args = node_args(dim, 12)
        assert_as_fresh(case, args, 0.4)
        for a in args:
            a *= 0.75
        assert_as_fresh(case, args, 0.4)

    def test_same_values_other_shape(self, dim):
        case = fresh_case(dim)
        args = node_args(dim, 12)
        assert_as_fresh(case, args, 0.4)
        assert_as_fresh(case, tuple(np.atleast_2d(a).T for a in args), 0.4)
        assert_as_fresh(case, args, 0.4)

    def test_zero_dimensional_nodes(self, dim):
        case = fresh_case(dim)
        first = tuple(np.array(v) for v in (0.7, 1.1)[:dim])
        second = tuple(np.array(v) for v in (1.3, 0.4)[:dim])
        for args in (first, second, first):
            assert_as_fresh(case, args, 0.6)

    def test_out_of_domain_still_raises(self, dim):
        case = fresh_case(dim)
        args = node_args(dim, 10)
        for axis in range(dim):
            assert_as_fresh(case, args, 0.3)
            outside = tuple(a + 2.0 if i == axis else a for i, a in enumerate(args))
            for _ in range(2):
                with pytest.raises(ValueError):
                    case.forcing(*outside, 0.3)
        assert_as_fresh(case, args, 0.3)


def uncached_forcing_1d(alpha):
    def forcing(x, t):
        return np.cos(t + 1.0) * profile(x) - np.sin(t + 1.0) * _two_sided_rl(alpha, x)

    return forcing


def uncached_forcing_2d(alpha, beta):
    def forcing(x, y, t):
        px, py = profile(x), profile(y)
        space = _two_sided_rl(alpha, x) * py + px * _two_sided_rl(beta, y)
        return np.cos(t + 1.0) * (px * py) - np.sin(t + 1.0) * space

    return forcing


class TestForcingMechanism:
    @pytest.mark.parametrize("dim,per_level", [(1, 2), (2, 4)])
    def test_spatial_part_evaluated_once_per_level(self, monkeypatch, dim, per_level):
        original = verification.rl_exact_poly
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(verification, "rl_exact_poly", counting)
        convergence_study(
            fresh_case(dim), DEFAULT_TUPLE, h_list=[1 / 5, 1 / 10, 1 / 15], tau_law=lambda h: 0.1
        )
        assert len(calls) == 3 * per_level

    @pytest.mark.parametrize("dim", [1, 2])
    def test_column_of_times_stacks_scalar_calls(self, dim):
        # the declared broadcasts_over_t contract, bit for bit
        case = fresh_case(dim)
        assert case.forcing.broadcasts_over_t
        args = node_args(dim, 12)
        t = (np.arange(7) + 0.5) / 9.0
        block = case.forcing(*args, t.reshape((-1,) + (1,) * dim))
        assert np.array_equal(block, [case.forcing(*args, float(t_k)) for t_k in t])

    def test_column_of_times_allocates_one_block(self):
        # a block of 5 times at 79 x 79 nodes, the solver's 256 KiB block at
        # h = 1/40: the result plus one node-sized scratch, not the three
        # block-sized temporaries of the one-shot expression.  A broadcast
        # product in numpy 2 also takes two iterator buffers of at most
        # getbufsize() doubles each, counted by tracemalloc; they are allowed for.
        case = fresh_case(2)
        s = np.linspace(0.0, 2.0, 81)[1:-1]
        args = (s[:, None], s[None, :])
        t = ((np.arange(5) + 0.5) / 9.0).reshape(-1, 1, 1)
        case.forcing(*args, t)  # the spatial parts, cached per grid as in a solve
        tracemalloc.start()
        try:
            block = case.forcing(*args, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.shape == (5, 79, 79)
        assert peak <= 1.25 * block.nbytes + 2 * np.getbufsize() * 8

    def test_1d_column_of_times_allocates_one_block(self):
        # 255 times at 119 nodes, the reduced solver's block at h = 1/60: the
        # result plus a scratch of an eighth of its rows, numpy's two
        # iterator buffers and a few time columns, where the one-shot
        # expression took three block-sized arrays (measured 1.55 and 3.00
        # blocks)
        case = fresh_case(1)
        s = np.linspace(0.0, 2.0, 121)[1:-1]
        t = ((np.arange(255) + 0.5) / 3600.0)[:, None]
        case.forcing(s, t)  # the spatial parts, cached per grid as in a solve
        tracemalloc.start()
        try:
            block = case.forcing(s, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.shape == (255, 119)
        extra = block.nbytes / 8 + 2 * np.getbufsize() * 8 + 4 * t.nbytes
        assert peak <= block.nbytes + extra

    def test_2d_forcing_scales_the_stored_profile_product(self):
        # the memo keeps px * py, so the cosine term is cos(t+1) * (px * py)
        # (the association (cos(t+1) * px) * py rounds differently)
        alpha, beta = 1.3, 1.7
        x, y = node_args(2, 12)
        px, py = profile(x), profile(y)
        space = _two_sided_rl(alpha, x) * py + px * _two_sided_rl(beta, y)
        t = 0.37
        want = np.cos(t + 1.0) * (px * py) - np.sin(t + 1.0) * space
        got = manufactured_2d(alpha, beta).forcing(x, y, t)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("column", [False, True], ids=["scalar-times", "column-of-times"])
    def test_1d_forcing_unchanged(self, column):
        # cos(t+1) * p - sin(t+1) * r, bit for bit, one time at a time or
        # broadcast over a column of times
        (s,) = node_args(1, 16)
        p, r = profile(s), _two_sided_rl(1.3, s)
        forcing = manufactured_1d(1.3).forcing
        t = (np.arange(9) + 0.5) / 7.0
        if column:
            got = forcing(s, t[:, None])
        else:
            got = np.array([forcing(s, float(t_k)) for t_k in t])
        want = np.cos(t[:, None] + 1.0) * p - np.sin(t[:, None] + 1.0) * r
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_solve_1d_bit_identical_to_uncached(self):
        case = manufactured_1d(1.7)
        problem = case.problem(24, n_steps=40)
        plain = dataclasses.replace(problem, forcing=uncached_forcing_1d(1.7))
        assert np.array_equal(
            solve_1d(problem, return_history=True), solve_1d(plain, return_history=True)
        )

    @pytest.mark.parametrize("variant", ["peaceman_rachford", "douglas"])
    def test_solve_2d_bit_identical_to_uncached(self, variant):
        case = manufactured_2d(1.2, 1.9)
        problem = case.problem(12, n_steps=20)
        plain = dataclasses.replace(problem, forcing=uncached_forcing_2d(1.2, 1.9))
        assert np.array_equal(
            solve_2d(problem, variant=variant, return_history=True),
            solve_2d(plain, variant=variant, return_history=True),
        )


class TestRun:
    def test_1d_is_solve_1d_and_exact_at_the_nodes(self):
        case = manufactured_1d(ALPHA)
        case.t_final = 0.6
        problem = case.problem(12, 7)
        x = problem.grid.interior_nodes()
        (nodes,) = problem.nodes
        np.testing.assert_array_equal(nodes, x)
        numeric, exact = case.run(problem, (1, 2))
        np.testing.assert_array_equal(numeric, solve_1d(problem, (1, 2)))
        np.testing.assert_array_equal(exact, case.exact(x, 0.6))

    @pytest.mark.parametrize("variant", ADI_VARIANTS)
    def test_2d_is_solve_2d_and_exact_at_the_nodes(self, variant):
        case = manufactured_2d(ALPHA, 1.8)  # alpha != beta: a swapped axis shows
        problem = case.problem(10, 6)
        x = problem.grid_x.interior_nodes()[:, None]
        y = problem.grid_y.interior_nodes()[None, :]
        nodes = problem.nodes
        assert len(nodes) == 2
        np.testing.assert_array_equal(nodes[0], x)
        np.testing.assert_array_equal(nodes[1], y)
        numeric, exact = case.run(problem, (1, 2, 1, -2), variant)
        np.testing.assert_array_equal(numeric, solve_2d(problem, (1, 2, 1, -2), variant=variant))
        np.testing.assert_array_equal(exact, case.exact(x, y, 1.0))
        assert exact.shape == numeric.shape == (9, 9)

    def test_defaults(self):
        case = manufactured_2d(ALPHA, 1.8)
        problem = case.problem(8, 3)
        numeric, _ = case.run(problem)
        np.testing.assert_array_equal(
            numeric, solve_2d(problem, DEFAULT_TUPLE, variant="peaceman_rachford")
        )


class TestMaxError:
    def test_identical(self):
        a = np.arange(6.0)
        assert max_error(a, a) == 0.0

    def test_single_node_difference(self):
        a = np.zeros(5)
        b = np.zeros(5)
        b[2] = 0.125
        assert max_error(a, b) == 0.125

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            max_error(np.zeros(4), np.zeros(5))


PRINTED_TABLES = [
    # (errors, printed rates, h values)
    ([4.7842e-03, 2.5436e-04, 1.9662e-05, 4.1748e-06], [4.2333, 3.6934, 3.8218], [1 / 10, 1 / 20, 1 / 40, 1 / 60]),
    ([5.8264e-03, 5.9999e-04, 4.6242e-05, 9.7725e-06], [3.2796, 3.6977, 3.8334], [1 / 10, 1 / 20, 1 / 40, 1 / 60]),
    ([8.5475e-03, 4.9722e-04, 3.9559e-05, 8.6604e-06], [4.1035, 3.6518, 3.7464], [1 / 10, 1 / 20, 1 / 40, 1 / 60]),
    ([5.5003e-03, 5.7476e-04, 4.4490e-05, 9.4148e-06], [3.2585, 3.6914, 3.8301], [1 / 10, 1 / 20, 1 / 40, 1 / 60]),
    ([8.6154e-03, 5.4115e-04, 1.2626e-04, 4.3328e-05], [3.9928, 3.5894, 3.7177], [1 / 10, 1 / 20, 1 / 30, 1 / 40]),
    ([6.5211e-03, 4.4802e-04, 8.8416e-05, 2.7791e-05], [3.8635, 4.0023, 4.0229], [1 / 10, 1 / 20, 1 / 30, 1 / 40]),
    ([1.0110e-02, 6.3881e-04, 1.4363e-04, 4.8431e-05], [3.9842, 3.6806, 3.7788], [1 / 10, 1 / 20, 1 / 30, 1 / 40]),
    ([6.6368e-03, 4.5471e-04, 8.9704e-05, 2.8199e-05], [3.8675, 4.0032, 4.0226], [1 / 10, 1 / 20, 1 / 30, 1 / 40]),
]


class TestRateFormula:
    @pytest.mark.parametrize("errors,rates,hs", PRINTED_TABLES)
    def test_reproduces_published_rates(self, errors, rates, hs):
        # the published rates follow from the published errors alone, which
        # pins down the log-ratio formula including non-halving steps
        for i, printed in enumerate(rates, start=1):
            computed = observed_rate(errors[i - 1], errors[i], hs[i - 1], hs[i])
            assert abs(computed - printed) <= 1e-4

    def test_spot_values(self):
        assert observed_rate(4.7842e-03, 2.5436e-04, 1 / 10, 1 / 20) == pytest.approx(4.2333, abs=1e-4)
        assert observed_rate(1.9662e-05, 4.1748e-06, 1 / 40, 1 / 60) == pytest.approx(3.8218, abs=1e-4)


class TestConvergenceStudy:
    def test_single_h_has_no_rate(self):
        table = convergence_study(manufactured_1d(1.5), DEFAULT_TUPLE, h_list=[1 / 10])
        assert table.rates() == [None]
        assert len(table.rows) == 1

    def test_h_must_decrease(self):
        with pytest.raises(ValueError):
            convergence_study(manufactured_1d(1.5), DEFAULT_TUPLE, h_list=[1 / 20, 1 / 10])

    @pytest.mark.parametrize(
        "h_list,level",
        [([float("nan")], 0), ([1 / 10, float("nan")], 1), ([float("inf"), 1 / 10], 0),
         ([0.0], 0), ([1 / 10, -1 / 20], 1), ([-float("inf")], 0)],
        ids=["nan", "nan-second", "inf", "zero", "negative", "minus-inf"],
    )
    def test_bad_h_rejected_by_name(self, h_list, level):
        with pytest.raises(ValueError, match=rf"^h_list\[{level}\] must be finite and positive"):
            convergence_study(manufactured_1d(1.5), DEFAULT_TUPLE, h_list=h_list)

    def test_h_must_divide_the_domain(self):
        with pytest.raises(ValueError, match=r"^h = 0\.15 does not divide the domain width 2\.0$"):
            convergence_study(manufactured_1d(1.5), DEFAULT_TUPLE, h_list=[1 / 5, 0.15])

    @pytest.mark.parametrize(
        "bad", [lambda h: -h * h, lambda h: np.inf, lambda h: 0.0], ids=["-h^2", "inf", "zero"]
    )
    def test_tau_law_must_give_a_finite_positive_step(self, bad, monkeypatch):
        # the first level's step is fine, the second's is not: nothing runs
        solves = []
        monkeypatch.setattr(verification, "solve_1d", lambda *args, **kwargs: solves.append(1))
        law = lambda h: h * h if h > 0.15 else bad(h)
        with pytest.raises(ValueError, match=r"^tau_law must return a finite positive step, "
                                             r"got .* at h = 0\.1$"):
            convergence_study(manufactured_1d(1.5), DEFAULT_TUPLE, h_list=[1 / 5, 1 / 10],
                              tau_law=law)
        assert solves == []

    @pytest.mark.parametrize("case", [manufactured_1d(1.5), manufactured_2d(1.3, 1.7)],
                             ids=["1d", "2d"])
    def test_unknown_variant_rejected_before_first_level(self, case, monkeypatch):
        solves = []
        for name in ("solve_1d", "solve_2d"):
            monkeypatch.setattr(verification, name, lambda *args, **kwargs: solves.append(1))
        with pytest.raises(ValueError, match=r"^variant must be one of .* got 'upwind'"):
            convergence_study(case, DEFAULT_TUPLE, h_list=[1 / 5], variant="upwind")
        assert solves == []

    def test_reproduces_benchmark_rate(self):
        table = convergence_study(manufactured_1d(1.1), DEFAULT_TUPLE, h_list=[1 / 10, 1 / 20])
        assert table.errors()[0] == pytest.approx(4.7842e-03, rel=0.02)
        assert table.errors()[1] == pytest.approx(2.5436e-04, rel=0.02)
        assert table.rates()[1] == pytest.approx(4.2333, abs=0.05)

    def test_tau_refinement_plateau(self):
        # fixed h: error decreases under time refinement until the spatial
        # error dominates, guarding the forcing assembly
        case = manufactured_1d(1.5)
        errors = []
        for n_steps in (4, 16, 100, 400):
            p = case.problem(20, n_steps=n_steps)
            errors.append(max_error(solve_1d(p), case.exact(p.grid.interior_nodes(), 1.0)))
        assert errors[0] > errors[1] > errors[2] * 0.999
        assert errors[2] == pytest.approx(errors[3], rel=0.02)


def paper_coefficients(x, alpha):
    return x**alpha, 2 * x**alpha


def constant_coefficients(x, alpha):
    return np.ones_like(x), np.full_like(x, 2.0)


# the rows of README "Known deviations" 5: (id prefix, coefficients, forcing,
# (alpha, low, high) per column)
GENERIC_ROWS = [
    ("", paper_coefficients, lambda x, t: x**4 * (2 - x) ** 4,
     [(1.1, 0.15, 0.19), (1.5, 0.63, 0.64), (1.9, 0.91, 0.93)]),
    ("x(2-x)-", paper_coefficients, lambda x, t: x * (2 - x),
     [(1.1, 0.17, 0.19), (1.5, 0.63, 0.64), (1.9, 0.96, 1.02)]),
    ("f1-", paper_coefficients, lambda x, t: np.ones_like(x),
     [(1.1, 0.0, 0.0), (1.5, 0.0, 0.0), (1.9, 0.0, 0.0)]),
    ("constant-f1-", constant_coefficients, lambda x, t: np.ones_like(x),
     [(1.1, 0.15, 0.19), (1.5, 0.62, 0.64), (1.9, 0.89, 0.92)]),
]


@pytest.mark.parametrize(
    "coefficients,forcing,alpha,low,high",
    [pytest.param(c, f, *cell, id=prefix + "-".join(map(str, cell)))
     for prefix, c, f, cells in GENERIC_ROWS for cell in cells],
)
def test_generic_forcing_converges_below_design_order(coefficients, forcing, alpha, low, high):
    # README "Known deviations" 5: u0 = 0 and a time-independent forcing on
    # (0, 2), t_final 0.25 in 64 steps.  The max-norm rates of the level
    # differences over n_cells 40-640 sit far below 4, even for
    # B(x) = x^4 (2-x)^4, which vanishes to fourth order at both ends,
    # because the solution behaves like a power of x near the ends; with
    # the paper's coefficients and f = 1 they do not shrink at all
    levels = []
    for n_cells in (40, 80, 160, 320, 640):
        grid = Grid1D(0.0, 2.0, n_cells)
        x = grid.interior_nodes()
        d_plus, d_minus = coefficients(x, alpha)
        p = Problem1D(grid=grid, alpha=alpha, d_plus=d_plus, d_minus=d_minus,
                      forcing=forcing, u0=np.zeros_like(x), t_final=0.25, n_steps=64)
        levels.append(np.concatenate(([0.0], solve_1d(p), [0.0])))
    diffs = [np.abs(fine[::2] - coarse).max() for coarse, fine in zip(levels, levels[1:])]
    rates = np.log2(np.divide(diffs[:-1], diffs[1:]))
    assert np.all((rates > low - 0.05) & (rates < high + 0.05)), rates

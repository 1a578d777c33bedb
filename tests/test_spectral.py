import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigvalsh, toeplitz

import wsld.spectral as spectral
from wsld.coefficients import (
    DEFAULT_TUPLE,
    DegenerateTupleError,
    ShiftTuple,
    branch_weights,
    lubich_coeffs,
    weights_order3,
)
from wsld.operators import Grid1D, assemble_left
from wsld.spectral import (
    CERTIFIED_TUPLES,
    ROUNDOFF_ZERO,
    SpectralReport,
    certify,
    generating_function,
    generating_function_series,
    max_real_part_bound,
    quadratic_symbol_phase,
    scan_nonpositivity,
)


class TestSymbolPhase:
    def test_endpoints(self):
        assert quadratic_symbol_phase(0.0) == 0.0
        assert quadratic_symbol_phase(np.pi) == pytest.approx(np.pi / 2, rel=1e-15)

    def test_monotone_and_bounded(self):
        x = np.linspace(0.0, np.pi, 1001)
        th = quadratic_symbol_phase(x)
        assert np.all(np.diff(th) >= 0.0)
        assert th.min() >= 0.0 and th.max() <= np.pi / 2 + 1e-15

    def test_against_arctangent_oracle(self):
        # independent form: x/2 + arctan(sin x / (3 - cos x)) from the
        # cartesian argument of the quadratic factor
        x = np.linspace(0.0, np.pi, 501)
        oracle = x / 2 + np.arctan(np.sin(x) / (3.0 - np.cos(x)))
        np.testing.assert_allclose(quadratic_symbol_phase(x), oracle, atol=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 3.5])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            quadratic_symbol_phase(bad)


class TestGeneratingFunction:
    def test_vanishes_at_origin(self):
        assert generating_function((1, 2), 1.5, 0.0) == 0.0

    def test_value_at_pi(self):
        # prefactor 2**alpha * 4**(alpha/2) = 8, bracket 2 cos(-pi) - cos(-2 pi) = -3
        assert generating_function((1, 2), 1.5, np.pi) == pytest.approx(-24.0, rel=1e-14)

    def test_series_route_agrees(self):
        # truncation tail is O(n_terms**-alpha): ~3e-7 at 1e5 terms, so the
        # two routes can only be compared at that level
        x = np.linspace(0.0, np.pi, 101)
        closed = generating_function((1, -2), 1.3, x)
        coarse = generating_function_series((1, -2), 1.3, x, n_terms=10_000)
        fine = generating_function_series((1, -2), 1.3, x, n_terms=100_000)
        assert np.max(np.abs(fine - closed)) < 1e-6
        assert np.max(np.abs(fine - closed)) < np.max(np.abs(coarse - closed))

    def test_order3_weighted_combination_identity(self):
        alpha = 1.3
        x = np.linspace(0.0, np.pi, 301)
        w_pq, w_rs = weights_order3(alpha, 1, 2, 1, -2)
        combined = generating_function((1, 2, 1, -2), alpha, x)
        parts = w_pq * generating_function((1, 2), alpha, x) + w_rs * generating_function(
            (1, -2), alpha, x
        )
        np.testing.assert_allclose(combined, parts, atol=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            generating_function((1, 2), 1.5, -0.5)


class TestScan:
    @pytest.mark.parametrize("shifts", [(1, 2), (1, -2)])
    def test_second_order_pairs_nonpositive(self, shifts):
        alphas = np.round(np.arange(1.1, 1.95, 0.1), 10)
        report = scan_nonpositivity(shifts, alphas, np.linspace(0.0, np.pi, 2001))
        assert report.f_max <= 0.0
        assert report.lambda_max_sym is None
        assert report.verdict == "indeterminate"

    def test_fourth_order_default_nonpositive(self):
        report = scan_nonpositivity(DEFAULT_TUPLE, [1.1, 1.5, 1.9])
        assert report.f_max <= 0.0

    def test_unshifted_scan_is_positive(self):
        report = scan_nonpositivity((0,), [1.5])
        assert report.f_max > ROUNDOFF_ZERO
        assert report.verdict == "positive"

    def test_empty_grids_rejected(self):
        with pytest.raises(ValueError):
            scan_nonpositivity((1, 2), [])
        with pytest.raises(ValueError):
            scan_nonpositivity((1, 2), [1.5], np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected_by_name(self, bad):
        # unchecked, a NaN sample drops the whole alpha from the maximum
        with pytest.raises(ValueError, match="^x_grid must be finite"):
            scan_nonpositivity((1, 2), [1.5], np.array([bad, 1.0]))


# derandomized so the suite is reproducible
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@contextmanager
def eigvalsh_sizes():
    """Collect the shapes of the matrices passed to ``spectral.eigvalsh``.

    A context manager, not a fixture, so every hypothesis draw starts empty.
    """
    shapes = []
    original = spectral.eigvalsh

    def spy(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return original(matrix, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "eigvalsh", spy)
        yield shapes


@contextmanager
def top_solves():
    """Collect ``(shape, route)`` for every ``spectral._top_eigenvalue`` call:
    route ``"eigvalsh"`` when the solve called ``spectral.eigvalsh``, else
    ``"cholesky"`` (inverse iteration on the Cholesky factor of ``-h``).
    """
    solves = []
    top_eigenvalue, dense_solve = spectral._top_eigenvalue, spectral.eigvalsh

    def top_spy(h):
        solves.append((np.shape(h), "cholesky"))
        return top_eigenvalue(h)

    def eigvalsh_spy(*args, **kwargs):
        solves[-1] = (solves[-1][0], "eigvalsh")
        return dense_solve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_top_eigenvalue", top_spy)
        mp.setattr(spectral, "eigvalsh", eigvalsh_spy)
        yield solves


def shapes(solves):
    return [shape for shape, _ in solves]


def assert_top_eigenvalue(matrix):
    a = np.asarray(matrix)
    full = np.linalg.eigvalsh((a + a.T) / 2)[-1]
    assert max_real_part_bound(a) == pytest.approx(full, rel=1e-12, abs=1e-14)


class TestEigenvalueBound:
    def test_identity(self):
        assert max_real_part_bound(np.eye(7)) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("shifts", [DEFAULT_TUPLE, (0,)])
    def test_matches_full_spectrum(self, shifts):
        op = assemble_left(1.3, shifts, Grid1D(0.0, 1.0, 101))
        full = np.linalg.eigvalsh((op + op.T) / 2)[-1]
        assert max_real_part_bound(op) == pytest.approx(full, rel=1e-12, abs=1e-14)

    def test_unshifted_operator_unstable(self):
        op = assemble_left(1.5, (0,), Grid1D(0.0, 1.0, 17))
        assert max_real_part_bound(op) >= 1.5**1.5

    def test_default_tuple_negative(self):
        op = assemble_left(1.5, DEFAULT_TUPLE, Grid1D(0.0, 1.0, 17))
        assert max_real_part_bound(op) < 0.0

    def test_extremal_pair_residual(self):
        # dense symmetric solve must return an accurate extremal pair
        op = assemble_left(1.5, DEFAULT_TUPLE, Grid1D(0.0, 1.0, 65))
        h = (op + op.T) / 2
        lams, vecs = eigh(h)
        norm_h = np.linalg.norm(h, 2)
        for idx in (0, -1):
            residual = np.linalg.norm(h @ vecs[:, idx] - lams[idx] * vecs[:, idx])
            assert residual <= 1e-10 * norm_h

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            max_real_part_bound(np.zeros((3, 4)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            max_real_part_bound(np.zeros((0, 0)))

    # neither corner makes the matrix Toeplitz, so both take the dense route
    # and its whole-matrix check
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("corner", [1.0, 2.0])
    def test_rejects_non_finite(self, bad, corner):
        h = np.eye(5)
        h[1, 3] = h[3, 1] = bad
        h[0, 0] = corner
        with pytest.raises(ValueError):
            max_real_part_bound(h)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_by_name_before_any_solve(self, bad):
        a = np.eye(6)
        a[2, 3] = a[3, 2] = bad
        with eigvalsh_sizes() as sizes, pytest.raises(ValueError, match="^matrix must be finite$"):
            max_real_part_bound(a)
        assert sizes == []

    def test_screen_never_passes_on_an_overflowed_pivot(self):
        # finite and Toeplitz, but a pivot top - odd_ii overflows to inf, and
        # an infinite pivot would let the factorization pass although the
        # odd block's top (about 1.14e308) lies above the even one (9.31e307)
        h = toeplitz(np.array([-8, -7, 8, 8, -3, -6, -3, -8]) * 1e307)
        with eigvalsh_sizes() as sizes:
            assert_top_eigenvalue(h)
        assert sizes == [(4, 4)] * 2


def even_and_odd_tops(h):
    """Dense oracle: top eigenvalues of h's J-symmetric and J-antisymmetric
    eigenvectors (-inf for a parity with none)."""
    lams, vecs = np.linalg.eigh(h)
    parity = np.einsum("ij,ij->j", vecs, vecs[::-1])
    even, odd = lams[parity > 0], lams[parity < 0]
    return (even.max(initial=-np.inf), odd.max(initial=-np.inf))


def expected_block_sizes(n, odd_solved):
    """Even block (with the middle node for odd n), then the odd block if solved."""
    return [((n + 1) // 2,) * 2] + ([(n // 2,) * 2] if odd_solved else [])


class TestCentrosymmetricSplit:
    @PROPERTY_SETTINGS
    @given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
    def test_toeplitz_odd_block_solved_only_when_its_top_is_larger(self, n, seed):
        h = toeplitz(np.random.default_rng(seed).normal(size=n))
        even_top, odd_top = even_and_odd_tops(h)
        with top_solves() as solves:
            assert_top_eigenvalue(h)
        assert shapes(solves) == expected_block_sizes(n, odd_top > even_top)

    @PROPERTY_SETTINGS
    @given(n=st.integers(3, 60), seed=st.integers(0, 2**32 - 1))
    def test_non_toeplitz_centrosymmetric_gets_one_dense_solve(self, n, seed):
        b = np.random.default_rng(seed).normal(size=(n, n))
        h = b + b.T
        h = h + h[::-1, ::-1]
        assert not np.array_equal(h[1:, 1:], h[:-1, :-1])
        with top_solves() as solves:
            assert_top_eigenvalue(h)
        assert shapes(solves) == [(n, n)]

    @pytest.mark.parametrize("n", [6, 8, 40])
    def test_odd_block_solved_when_its_top_is_larger(self, n):
        # -(Z + Z^T) for the unit subdiagonal Z: the top eigenvector
        # alternates in sign, so at even n it is J-antisymmetric
        a = -np.eye(n, k=-1) - np.eye(n, k=1)
        even_top, odd_top = even_and_odd_tops(a)
        assert odd_top > even_top
        with eigvalsh_sizes() as sizes:
            assert_top_eigenvalue(a)
        assert sizes == [(n // 2, n // 2)] * 2

    @PROPERTY_SETTINGS
    @given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
    def test_other_matrices_match_full_spectrum(self, n, seed):
        a = np.random.default_rng(seed).normal(size=(n, n))
        with top_solves() as solves:
            assert_top_eigenvalue(a)
        assert shapes(solves) == [(n, n)]

    @pytest.mark.parametrize("n,block", [(400, (200, 200)), (401, (201, 201))])
    def test_wsld_operator_solves_even_half_block_only(self, n, block):
        op = assemble_left(1.3, DEFAULT_TUPLE, Grid1D(0.0, 1.0, n + 1))
        with top_solves() as solves:
            assert_top_eigenvalue(op)
        assert solves == [(block, "cholesky")]

    def test_other_matrix_gets_one_dense_solve(self):
        op = assemble_left(1.3, DEFAULT_TUPLE, Grid1D(0.0, 1.0, 65)).copy()
        op[0, 0] += 1.0  # no longer Toeplitz, so H is not centrosymmetric
        with eigvalsh_sizes() as sizes:
            assert_top_eigenvalue(op)
        assert sizes == [(64, 64)]


class TestGrenanderSzegoeSandwich:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_symmetric_eigenvalues_inside_symbol_range(self, n):
        alpha = 1.3
        x = np.linspace(0.0, np.pi, 2001)
        f = generating_function(DEFAULT_TUPLE, alpha, x)
        op = assemble_left(alpha, DEFAULT_TUPLE, Grid1D(0.0, 1.0, n + 1))
        h = (op + op.T) / 2
        lams = np.linalg.eigvalsh(h)
        assert lams[-1] <= f.max() + 1e-8
        assert lams[0] >= f.min() - 1e-8


class TestCertify:
    @pytest.mark.parametrize("shifts", list(CERTIFIED_TUPLES) + [ShiftTuple((1, 2)), ShiftTuple((1, -2))])
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_stable_families(self, shifts, alpha):
        if shifts == ShiftTuple((1, 2, 1, -1, 1, -1, 1, -2)) and alpha == 1.5:
            # combination weights degenerate at this exact order
            with pytest.raises(DegenerateTupleError):
                certify(shifts, alphas=[alpha], n_interior=16, x_points=501)
            return
        report = certify(shifts, alphas=[alpha], n_interior=16, x_points=501)
        assert report.verdict == "certified_negative"
        assert report.f_max <= ROUNDOFF_ZERO
        assert report.lambda_max_sym < 0.0

    @pytest.mark.parametrize("shifts", CERTIFIED_TUPLES[::3])
    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
    def test_eigenvalue_bound_at_benchmark_size(self, shifts, alpha):
        # n = 400, as in the certification sweep, against the dense spectrum
        if shifts == ShiftTuple((1, 2, 1, -1, 1, -1, 1, -2)) and alpha == 1.5:
            with pytest.raises(DegenerateTupleError):
                certify(shifts, alphas=[alpha], n_interior=400)
            return
        op = np.array(assemble_left(alpha, shifts, Grid1D(0.0, 1.0, 401)))
        full = np.linalg.eigvalsh((op + op.T) / 2)[-1]
        report = certify(shifts, alphas=[alpha], n_interior=400)
        assert report.lambda_max_sym == pytest.approx(full, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("x_points", [1, 0])
    def test_rejects_scan_below_two_points(self, x_points):
        with pytest.raises(ValueError, match=f"x_points must be at least 2, got {x_points}"):
            certify(DEFAULT_TUPLE, alphas=[1.5], n_interior=8, x_points=x_points)

    @pytest.mark.parametrize("x_points", [2.5, 2.0, "11", True])
    def test_rejects_non_integer_x_points_by_name(self, x_points):
        with pytest.raises(ValueError, match=f"^x_points must be an integer, got {x_points!r}"):
            certify(DEFAULT_TUPLE, alphas=[1.5], n_interior=8, x_points=x_points)

    @pytest.mark.parametrize("n_interior", [1, 2])
    def test_rejects_matrix_not_wider_than_max_shift(self, n_interior):
        with pytest.raises(ValueError, match=f"grid has {n_interior} interior nodes"):
            certify(DEFAULT_TUPLE, alphas=[1.5], n_interior=n_interior, x_points=11)

    @pytest.mark.parametrize("n_interior", [2.5, 0, -3, "8", True])
    def test_rejects_bad_n_interior_by_name(self, n_interior):
        with pytest.raises(ValueError, match=f"^n_interior must be an integer >= 1, got {n_interior!r}"):
            certify(DEFAULT_TUPLE, alphas=[1.5], n_interior=n_interior, x_points=11)

    def test_unshifted_reports_positive(self):
        report = certify((0,), alphas=[1.5], n_interior=16, x_points=501)
        assert report.verdict == "positive"
        assert report.lambda_max_sym >= 1.5**1.5

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            SpectralReport(
                shifts=DEFAULT_TUPLE,
                alpha=1.5,
                f_max=1.0,
                lambda_max_sym=-1.0,
                verdict="certified_negative",
            )


def symbol_by_branch(shifts, alpha, x):
    """generating_function with one cosine per branch, as it was first
    written: the oracle for the shared cosines."""
    s = np.sin(x / 2)
    prefactor = (2.0 * s) ** alpha * (1.0 + 3.0 * s * s) ** (alpha / 2)
    phase = alpha * (x - np.pi / 2 - quadratic_symbol_phase(x))
    total = np.zeros_like(x)
    for w, t in branch_weights(alpha, shifts):
        total += w * np.cos(phase - t * x)
    return prefactor * total


class TestSharedCosines:
    @pytest.mark.parametrize(
        "shifts", list(CERTIFIED_TUPLES) + [(0,), (1, 2), (1, 2, 1, 0)], ids=str
    )
    def test_bit_identical_to_one_cosine_per_branch(self, shifts):
        x = np.linspace(0.0, np.pi, 2001)
        for alpha in np.round(np.arange(1.05, 1.951, 0.05), 2):
            if ShiftTuple.of(shifts) == CERTIFIED_TUPLES[3] and alpha == 1.5:
                continue  # degenerate weights; certify raises there
            got = generating_function(shifts, alpha, x)
            want = symbol_by_branch(shifts, alpha, x)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestSharedHalfAngle:
    def test_one_half_angle_per_call(self, monkeypatch):
        # sin(x/2), 1 + 3 sin(x/2)**2 and the range check serve the prefactor
        # and theta alike
        calls = []
        original = spectral._half_angle

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(spectral, "_half_angle", counting)
        generating_function(DEFAULT_TUPLE, 1.5, np.linspace(0.0, np.pi, 11))
        assert calls == ["x"]
        quadratic_symbol_phase(np.linspace(0.0, np.pi, 11))
        assert calls == ["x", "argument"]

    # NaN compares false both ways, so only a test for inclusion rejects it
    @pytest.mark.parametrize("bad", [-1e-9, np.pi + 1e-9, np.nan])
    def test_range_errors_keep_their_names(self, bad):
        with pytest.raises(ValueError, match=r"^x must lie in \[0, pi\]$"):
            generating_function(DEFAULT_TUPLE, 1.5, np.array([0.5, bad]))
        with pytest.raises(ValueError, match=r"^argument must lie in \[0, pi\]$"):
            quadratic_symbol_phase(np.array([0.5, bad]))


def dense_split_bound(a):
    """max_real_part_bound's centrosymmetric split done densely: H formed in
    full and both blocks sliced from it."""
    h = a + a.T
    h *= 0.5
    n = len(h)
    k = n // 2
    flipped = h[:k, n - k :][:, ::-1]
    even = h[:k, :k] + flipped
    odd = h[:k, :k] - flipped
    if n % 2:
        border = np.sqrt(2.0) * h[:k, k : k + 1]
        even = np.block([[even, border], [border.T, h[k : k + 1, k : k + 1]]])
    top = spectral._top_eigenvalue(even)
    if k and not spectral._below(odd, top):
        top = max(top, spectral._top_eigenvalue(odd))
    return top


@contextmanager
def block_routes():
    """Record the order n of every call of the O(n) block builder."""
    calls = []
    toeplitz_blocks = spectral._toeplitz_blocks

    def spy(t):
        calls.append(len(t))
        return toeplitz_blocks(t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_toeplitz_blocks", spy)
        yield calls


finite_entries = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestToeplitzRoute:
    @PROPERTY_SETTINGS
    @given(n=st.integers(1, 60), data=st.data())
    def test_matches_dense_split_bit_for_bit(self, n, data):
        c = np.array(data.draw(st.lists(finite_entries, min_size=n, max_size=n)))
        r = np.array(data.draw(st.lists(finite_entries, min_size=n, max_size=n)))
        a = toeplitz(c, r)
        want = dense_split_bound(a)
        with top_solves() as solves, block_routes() as calls:
            got = max_real_part_bound(a)
        assert got == want
        assert shapes(solves) in (expected_block_sizes(n, False), expected_block_sizes(n, True))
        # a 1 x 1 matrix takes the dense route
        assert calls == ([n] if n > 1 else [])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    @pytest.mark.parametrize("diagonal", [0, 3, -2])
    def test_infinite_diagonal_rejected_before_any_solve(self, bad, diagonal):
        c, r = np.arange(1.0, 7.0), -np.arange(1.0, 7.0)
        (c if diagonal < 0 else r)[abs(diagonal)] = bad
        c[0] = r[0]
        a = toeplitz(c, r)
        with eigvalsh_sizes() as sizes, block_routes() as calls:
            with pytest.raises(ValueError, match="^matrix must be finite$"):
                max_real_part_bound(a)
        assert sizes == [] and calls == []

    @pytest.mark.parametrize("n", [4, 5])
    def test_overflowing_symmetric_part_raises_value_error(self, n):
        # a_01 + a_10 overflows to inf, as it did when H was formed in full
        c = np.zeros(n)
        r = np.zeros(n)
        c[1] = r[1] = 1.7e308
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            max_real_part_bound(toeplitz(c, r))

    @pytest.mark.parametrize("n", [400, 401, 2000])
    def test_peak_memory_below_one_n_by_n_array(self, n):
        # H in full would be 8 n^2 bytes on its own; the blocks are a quarter
        op = assemble_left(1.3, DEFAULT_TUPLE, Grid1D(0.0, 1.0, n + 1))
        max_real_part_bound(op[:16, :16])  # warm the lazy imports
        tracemalloc.start()
        try:
            max_real_part_bound(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * n * n

    @pytest.mark.parametrize("shifts", CERTIFIED_TUPLES, ids=str)
    def test_certify_takes_the_toeplitz_route(self, shifts):
        with block_routes() as calls:
            certify(shifts, alphas=[1.1, 1.9], n_interior=32)
        assert calls == [32, 32]

    def test_certify_defaults_take_the_toeplitz_route(self):
        with block_routes() as calls:
            certify(DEFAULT_TUPLE)
        assert calls == [64] * 3


def negative_definite_toeplitz(n, rng):
    """Symmetric Toeplitz of the symbol ``-sum_k c_k (1 - cos kx)``, k <= 4,
    with ``c_1 >= 1``: its maximum 0 is taken at x = 0 only, as for the WSLD
    operators, so the top eigenvalues are negative and spread out near 0.
    A 1 x 1 matrix gets a negative entry of its own."""
    c = np.zeros(n)
    k = min(n - 1, 4)
    c[1 : k + 1] = rng.uniform(0.0, 1.0, k)
    c[1:2] += 1.0
    t = c / 2
    t[0] = -c.sum() if n > 1 else -rng.uniform(0.5, 1.5)
    return toeplitz(t)


def negative_definite_dense(n, rng):
    """``Q diag(lam) Q^T`` for a random orthogonal Q, with top eigenvalue
    -s and every other one at most -2s."""
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    lams = -rng.uniform(2.0, 100.0, n)
    lams[0] = -1.0
    return (q * (lams * rng.uniform(0.01, 10.0))) @ q.T


@contextmanager
def inverse_steps():
    """Count the ``spectral.dpotrs`` solves, one per inverse-iteration step."""
    calls = []
    original = spectral.dpotrs

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "dpotrs", spy)
        yield calls


class TestCholeskyRoute:
    @PROPERTY_SETTINGS
    @given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1), dense=st.booleans())
    def test_negative_definite_matches_full_spectrum(self, n, seed, dense):
        rng = np.random.default_rng(seed)
        h = (negative_definite_dense if dense else negative_definite_toeplitz)(n, rng)
        with top_solves() as solves:
            assert_top_eigenvalue(h)
        assert solves and all(route == "cholesky" for _, route in solves)

    @pytest.mark.parametrize("n", [8, 40])
    def test_j_antisymmetric_top_eigenvector(self, n):
        # -(2I + Z + Z^T): the top eigenvector alternates in sign, so at even
        # n it is J-antisymmetric and orthogonal to a constant start
        h = -(2 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1))
        top = np.linalg.eigh(h)[1][:, -1]
        assert np.allclose(top[::-1], -top)
        with top_solves() as solves:
            got = spectral._top_eigenvalue(h)
        assert solves == [((n, n), "cholesky")]
        assert got == pytest.approx(np.linalg.eigvalsh(h)[-1], rel=1e-12, abs=1e-14)
        # split into blocks, the top sits in the odd one, so both are solved
        with top_solves() as solves:
            assert_top_eigenvalue(h)
        assert solves == [((n // 2, n // 2), "cholesky")] * 2

    def test_near_tie_reaches_the_cap_and_returns_eigvalsh(self):
        # lambda_2 / lambda_1 = 1 + 1e-6: successive changes of mu shrink by
        # a ratio near 1, so the error bound never passes
        n = 20
        q = np.linalg.qr(np.random.default_rng(0).normal(size=(n, n)))[0]
        lams = -np.linspace(3.0, 10.0, n)
        lams[:2] = -1.0, -(1.0 + 1e-6)
        h = (q * lams) @ q.T
        h = (h + h.T) / 2
        with top_solves() as solves, inverse_steps() as steps:
            got = spectral._top_eigenvalue(h)
        assert solves == [((n, n), "eigvalsh")]
        assert len(steps) == spectral._INVERSE_STEPS
        assert got == eigvalsh(h, subset_by_index=[n - 1, n - 1])[0]

    def test_slow_small_component_is_not_taken_for_convergence(self):
        # lambda_2 / lambda_1 = 1 + 5e-5, and the start holds 1e-3 of the
        # second eigenvector: mu starts 5e-11 off but changes by only 5e-15
        # a step, so only the ratio of successive changes (1 - 1e-4) shows
        # the error left, and the iteration falls back at the cap
        n = 20
        start = np.random.default_rng(0).standard_normal(n)  # the iteration's start
        e = np.linalg.qr(np.column_stack([start, np.random.default_rng(1).normal(size=(n, n - 1))]))[0]
        c = 1e-3
        first = (e[:, 0] - c * e[:, 1]) / np.hypot(1.0, c)
        second = (c * e[:, 0] + e[:, 1]) / np.hypot(1.0, c)
        lams = -np.linspace(3.0, 10.0, n)
        lams[:2] = -1.0, -(1.0 + 5e-5)
        vecs = np.column_stack([first, second, e[:, 2:]])
        h = (vecs * lams) @ vecs.T
        h = (h + h.T) / 2
        with top_solves() as solves:
            assert_top_eigenvalue(h)
        assert solves == [((n, n), "eigvalsh")]

    @pytest.mark.parametrize("shifts", CERTIFIED_TUPLES, ids=str)
    def test_certify_at_benchmark_size_calls_no_eigvalsh(self, shifts):
        with eigvalsh_sizes() as sizes:
            report = certify(shifts, alphas=[1.1, 1.9], n_interior=400)
        assert sizes == []
        assert report.verdict == "certified_negative"


NEAR_DEGENERATE = ShiftTuple((1, 2, 1, -1, 1, -1, 1, -2))  # degenerate at alpha 1.5


class TestRoundoffSlack:
    @pytest.mark.parametrize("alpha", np.round(np.arange(1.05, 1.951, 0.05), 2))
    def test_q_bound_holds_and_is_close(self, alpha):
        # a single shift has sum|w| = 1, so the slack is 8 eps Q
        q_bound = spectral._roundoff_slack(ShiftTuple((0,)), [alpha]) / (8 * np.finfo(float).eps)
        total = np.abs(lubich_coeffs(alpha, 100_000)).sum()
        assert total <= q_bound <= 1.1 * total

    @pytest.mark.parametrize(
        "alpha, verdict",
        [(1.4999, "certified_negative"), (1.5 + 1e-9, "certified_negative"),
         (1.5 + 1e-13, "indeterminate")],
    )
    def test_rounding_noise_near_degenerate_weights_is_not_certified(self, alpha, verdict):
        # at 1.5 + 1e-13, sum|w| = 1.7e13 and lambda_max_sym comes out
        # +3.3e-3, pure cancellation error, inside a slack of about 0.26
        report = certify(NEAR_DEGENERATE, alphas=[alpha], n_interior=400)
        assert report.verdict == verdict
        slack = spectral._roundoff_slack(NEAR_DEGENERATE, [alpha])
        assert (abs(report.lambda_max_sym) <= slack) == (verdict == "indeterminate")

import numpy as np
import pytest
from scipy.linalg import eigh

from wsld.coefficients import DEFAULT_TUPLE, DegenerateTupleError, ShiftTuple, weights_order3
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


class TestEigenvalueBound:
    def test_identity(self):
        assert max_real_part_bound(np.eye(7)) == pytest.approx(1.0, rel=1e-14)

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

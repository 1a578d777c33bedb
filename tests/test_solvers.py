import dataclasses

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import wsld.solvers as solvers
from wsld.coefficients import DEFAULT_TUPLE
from wsld.operators import Grid1D
from wsld.solvers import (
    ADI_VARIANTS,
    Problem1D,
    Problem2D,
    build_adi_factors,
    build_cn_system,
    solve_1d,
    solve_2d,
    step_adi,
)
from wsld.verification import manufactured_1d, manufactured_2d, max_error


def zero_forcing_1d(x, t):
    return np.zeros_like(x)


def zero_forcing_2d(x, y, t):
    return np.zeros(np.broadcast(x, y).shape)


def make_problem_1d(alpha=1.5, n_cells=12, tau=0.01, n_steps=10, d_scale=(1.0, 2.0), u0=None):
    grid = Grid1D(0.0, 2.0, n_cells)
    x = grid.interior_nodes()
    if u0 is None:
        u0 = np.sin(np.pi * x / 2)
    return Problem1D(
        grid=grid,
        alpha=alpha,
        d_plus=d_scale[0] * x**alpha,
        d_minus=d_scale[1] * x**alpha,
        forcing=zero_forcing_1d,
        u0=u0,
        t_final=tau * n_steps,
        n_steps=n_steps,
    )


def make_problem_2d(alpha=1.4, beta=1.6, n_cells=6, tau=0.01, n_steps=4, u0=None):
    grid = Grid1D(0.0, 2.0, n_cells)
    x = grid.interior_nodes()
    n = grid.n_interior
    if u0 is None:
        u0 = np.outer(np.sin(np.pi * x / 2), x * (2 - x))
    return Problem2D(
        grid_x=grid,
        grid_y=grid,
        alpha=alpha,
        beta=beta,
        d_plus=x**alpha,
        d_minus=2 * x**alpha,
        e_plus=x**beta,
        e_minus=2 * x**beta,
        forcing=zero_forcing_2d,
        u0=u0,
        t_final=tau * n_steps,
        n_steps=n_steps,
    )


def kron_lift(kx, ky):
    """Dense Kronecker lifts acting on u.ravel(order='F') (x index fastest)."""
    nx, ny = kx.shape[0], ky.shape[0]
    return np.kron(np.eye(ny), kx), np.kron(ky, np.eye(nx))


def lu_stepped_1d(p, shifts=DEFAULT_TUPLE):
    """Reference CN trajectory: solve with the LU factors of M_minus every step."""
    m_minus, m_plus = build_cn_system(p, shifts)
    lu = lu_factor(m_minus)
    x = p.grid.interior_nodes()
    history = [p.u0]
    for n in range(p.n_steps):
        f = p.forcing(x, (n + 0.5) * p.tau)
        history.append(lu_solve(lu, m_plus @ history[-1] + p.tau * f))
    return np.array(history)


def lu_stepped_2d(p, variant, shifts=DEFAULT_TUPLE):
    """Reference ADI trajectory: both sweeps solve with LU factors every step."""
    kx, ky = build_adi_factors(p, shifts)
    lu_x = lu_factor(np.eye(kx.shape[0]) - kx)
    lu_y = lu_factor(np.eye(ky.shape[0]) - ky)
    x = p.grid_x.interior_nodes()[:, None]
    y = p.grid_y.interior_nodes()[None, :]
    history = [p.u0]
    for n in range(p.n_steps):
        u = history[-1]
        f = p.forcing(x, y, (n + 0.5) * p.tau)
        if variant == "peaceman_rachford":
            u_star = lu_solve(lu_x, u + u @ ky.T + 0.5 * p.tau * f)
            rhs = u_star + kx @ u_star + 0.5 * p.tau * f
        else:
            ay_u = u @ ky.T
            u_star = lu_solve(lu_x, u + kx @ u + 2.0 * ay_u + p.tau * f)
            rhs = u_star - ay_u
        history.append(lu_solve(lu_y, rhs.T).T)
    return np.array(history)


def count_lu_solve(monkeypatch):
    """Count the library's lu_solve calls; returns the list they append to."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return lu_solve(*args, **kwargs)

    monkeypatch.setattr(solvers, "lu_solve", counting)
    return calls


def assert_same_trajectory(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestProblemValidation:
    def test_negative_coefficient_rejected(self):
        grid = Grid1D(0.0, 2.0, 8)
        x = grid.interior_nodes()
        with pytest.raises(ValueError):
            Problem1D(
                grid=grid, alpha=1.5, d_plus=-x, d_minus=x, forcing=zero_forcing_1d,
                u0=np.zeros(7), t_final=1.0, n_steps=10,
            )

    def test_shape_mismatch_rejected(self):
        grid = Grid1D(0.0, 2.0, 8)
        with pytest.raises(ValueError):
            Problem1D(
                grid=grid, alpha=1.5, d_plus=np.ones(3), d_minus=np.ones(3),
                forcing=zero_forcing_1d, u0=np.zeros(3), t_final=1.0, n_steps=10,
            )


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "make,name",
        [(make_problem_1d, n) for n in ("d_plus", "d_minus", "u0")]
        + [(make_problem_2d, n) for n in ("d_plus", "d_minus", "e_plus", "e_minus", "u0")],
    )
    def test_non_finite_data_rejected(self, make, name, bad):
        problem = make()
        values = getattr(problem, name).copy()
        values.flat[1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            dataclasses.replace(problem, **{name: values})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("make", [make_problem_1d, make_problem_2d])
    def test_non_finite_t_final_rejected(self, make, bad):
        with pytest.raises(ValueError, match="^t_final must be finite"):
            dataclasses.replace(make(), t_final=bad)


class TestCrankNicolsonSystem:
    def test_zero_tau_gives_identity(self):
        p = make_problem_1d(tau=0.0, n_steps=1)
        m_minus, m_plus = build_cn_system(p, DEFAULT_TUPLE)
        np.testing.assert_array_equal(m_minus, np.eye(p.grid.n_interior))
        np.testing.assert_array_equal(m_plus, np.eye(p.grid.n_interior))

    def test_zero_coefficients_give_identity(self):
        p = make_problem_1d(d_scale=(0.0, 0.0))
        m_minus, m_plus = build_cn_system(p, DEFAULT_TUPLE)
        np.testing.assert_array_equal(m_minus, np.eye(p.grid.n_interior))

    def test_matrices_sum_to_twice_identity(self):
        p = make_problem_1d()
        m_minus, m_plus = build_cn_system(p, DEFAULT_TUPLE)
        np.testing.assert_array_equal(m_minus + m_plus, 2.0 * np.eye(p.grid.n_interior))


class TestSolve1D:
    def test_zero_data_stays_zero(self):
        p = make_problem_1d(u0=np.zeros(11))
        history = solve_1d(p, DEFAULT_TUPLE, return_history=True)
        np.testing.assert_array_equal(history, 0.0)

    def test_benchmark_cell_alpha_11(self):
        case = manufactured_1d(1.1)
        p = case.problem(20)
        err = max_error(solve_1d(p), case.exact(p.grid.interior_nodes(), 1.0))
        assert err == pytest.approx(4.7842e-03, rel=0.02)

    def test_benchmark_cell_alpha_19(self):
        case = manufactured_1d(1.9)
        p = case.problem(40)
        err = max_error(solve_1d(p), case.exact(p.grid.interior_nodes(), 1.0))
        assert err == pytest.approx(5.9999e-04, rel=0.02)

    def test_accepts_nonproportional_coefficients(self):
        grid = Grid1D(0.0, 2.0, 10)
        x = grid.interior_nodes()
        p = Problem1D(
            grid=grid, alpha=1.5, d_plus=x**1.5, d_minus=x**0.5 + 1.0,
            forcing=zero_forcing_1d, u0=np.sin(np.pi * x / 2), t_final=0.1, n_steps=10,
        )
        u = solve_1d(p)
        assert np.all(np.isfinite(u))


class TestUnconditionalStability:
    @pytest.mark.parametrize("alpha", [1.1, 1.9])
    @pytest.mark.parametrize("tau", [0.5, 1.0])
    def test_sup_norm_bounded_over_100_steps(self, alpha, tau):
        case = manufactured_1d(alpha)
        grid = Grid1D(0.0, 2.0, 40)
        x = grid.interior_nodes()
        p = Problem1D(
            grid=grid, alpha=alpha, d_plus=x**alpha, d_minus=2 * x**alpha,
            forcing=zero_forcing_1d, u0=case.exact(x, 0.0),
            t_final=tau * 100, n_steps=100,
        )
        u = solve_1d(p)
        assert np.max(np.abs(u)) <= np.max(np.abs(p.u0)) * (1.0 + 1e-8)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("tau_mode", ["h2", "half"])
    def test_propagator_spectral_radius(self, alpha, tau_mode):
        grid = Grid1D(0.0, 2.0, 32)
        x = grid.interior_nodes()
        tau = grid.h**2 if tau_mode == "h2" else 0.5
        p = Problem1D(
            grid=grid, alpha=alpha, d_plus=x**alpha, d_minus=2 * x**alpha,
            forcing=zero_forcing_1d, u0=np.zeros(31), t_final=tau, n_steps=1,
        )
        m_minus, m_plus = build_cn_system(p, DEFAULT_TUPLE)
        rho = np.max(np.abs(np.linalg.eigvals(np.linalg.solve(m_minus, m_plus))))
        assert rho < 1.0 - 1e-10


class TestAdiFactors:
    def test_zero_coefficients_give_zero_blocks(self):
        p = make_problem_2d()
        p.d_plus[:] = 0.0
        p.d_minus[:] = 0.0
        p.e_plus[:] = 0.0
        p.e_minus[:] = 0.0
        kx, ky = build_adi_factors(p, DEFAULT_TUPLE)
        np.testing.assert_array_equal(kx, 0.0)
        np.testing.assert_array_equal(ky, 0.0)

    def test_slice_application_matches_kronecker_matvec(self):
        p = make_problem_2d(n_cells=6)
        kx, ky = build_adi_factors(p, DEFAULT_TUPLE)
        big_x, big_y = kron_lift(kx, ky)
        rng = np.random.default_rng(3)
        v = rng.normal(size=(p.grid_x.n_interior, p.grid_y.n_interior))
        flat = v.ravel(order="F")
        got_x = (kx @ v).ravel(order="F")
        got_y = (v @ ky.T).ravel(order="F")
        np.testing.assert_allclose(got_x, big_x @ flat, rtol=1e-12)
        np.testing.assert_allclose(got_y, big_y @ flat, rtol=1e-12)

    def test_direction_operators_commute(self):
        p = make_problem_2d(n_cells=6)
        kx, ky = build_adi_factors(p, DEFAULT_TUPLE)
        rng = np.random.default_rng(4)
        v = rng.normal(size=(p.grid_x.n_interior, p.grid_y.n_interior))
        xy = kx @ (v @ ky.T)
        yx = (kx @ v) @ ky.T
        np.testing.assert_allclose(xy, yx, rtol=1e-12)


class TestAdiStep:
    def _factors(self, p, shifts=DEFAULT_TUPLE):
        kx, ky = build_adi_factors(p, shifts)
        inv_x = np.linalg.inv(np.eye(kx.shape[0]) - kx)
        inv_y = np.linalg.inv(np.eye(ky.shape[0]) - ky)
        return kx, ky, inv_x, inv_y

    def test_zero_state_zero_forcing_stays_zero(self):
        p = make_problem_2d()
        kx, ky, inv_x, inv_y = self._factors(p)
        z = np.zeros((p.grid_x.n_interior, p.grid_y.n_interior))
        for variant in ("peaceman_rachford", "douglas"):
            out = step_adi(z, z, p.tau, kx, ky, inv_x, inv_y, variant)
            np.testing.assert_array_equal(out, 0.0)

    def test_variants_agree_on_random_state(self):
        p = make_problem_2d(n_cells=8, alpha=1.3, beta=1.7)
        kx, ky, inv_x, inv_y = self._factors(p)
        rng = np.random.default_rng(11)
        u = rng.normal(size=(p.grid_x.n_interior, p.grid_y.n_interior))
        f = rng.normal(size=u.shape)
        u_pr = step_adi(u, f, p.tau, kx, ky, inv_x, inv_y, "peaceman_rachford")
        u_dg = step_adi(u, f, p.tau, kx, ky, inv_x, inv_y, "douglas")
        np.testing.assert_allclose(u_pr, u_dg, rtol=1e-10)

    @pytest.mark.parametrize("variant", ["peaceman_rachford", "douglas"])
    def test_step_matches_dense_factored_solve(self, variant):
        p = make_problem_2d(n_cells=6, alpha=1.2, beta=1.8)
        kx, ky, inv_x, inv_y = self._factors(p)
        big_x, big_y = kron_lift(kx, ky)
        n = big_x.shape[0]
        eye = np.eye(n)
        rng = np.random.default_rng(12)
        u = rng.normal(size=(p.grid_x.n_interior, p.grid_y.n_interior))
        f = rng.normal(size=u.shape)
        stepped = step_adi(u, f, p.tau, kx, ky, inv_x, inv_y, variant)
        rhs = (eye + big_x) @ (eye + big_y) @ u.ravel(order="F") + p.tau * f.ravel(order="F")
        dense = np.linalg.solve((eye - big_x) @ (eye - big_y), rhs)
        np.testing.assert_allclose(stepped.ravel(order="F"), dense, rtol=1e-10)

    def test_unknown_variant_rejected(self):
        p = make_problem_2d()
        kx, ky, inv_x, inv_y = self._factors(p)
        z = np.zeros((p.grid_x.n_interior, p.grid_y.n_interior))
        with pytest.raises(ValueError):
            step_adi(z, z, p.tau, kx, ky, inv_x, inv_y, "upwind")


class TestSolve2D:
    def test_zero_data_stays_zero(self):
        p = make_problem_2d(u0=np.zeros((5, 5)))
        u = solve_2d(p, DEFAULT_TUPLE)
        np.testing.assert_array_equal(u, 0.0)

    def test_benchmark_cell_second_tuple(self):
        # the one published 2D block this scheme reproduces within 3 percent
        case = manufactured_2d(1.1, 1.1)
        p = case.problem(20)
        shifts = (1, 2, 1, -3, 1, 2, 1, -2)
        x = p.grid_x.interior_nodes()[:, None]
        y = p.grid_y.interior_nodes()[None, :]
        err = max_error(solve_2d(p, shifts), case.exact(x, y, 1.0))
        assert err == pytest.approx(1.0110e-02, rel=0.03)

    def test_rectangular_grids(self):
        # nx != ny exercises the sweep/transpose bookkeeping
        case = manufactured_2d(1.3, 1.7)
        grid_x, grid_y = Grid1D(0.0, 2.0, 12), Grid1D(0.0, 2.0, 8)
        x, y = grid_x.interior_nodes(), grid_y.interior_nodes()
        p = Problem2D(
            grid_x=grid_x, grid_y=grid_y, alpha=1.3, beta=1.7,
            d_plus=x**1.3, d_minus=2 * x**1.3, e_plus=y**1.7, e_minus=2 * y**1.7,
            forcing=case.forcing, u0=case.exact(x[:, None], y[None, :], 0.0),
            t_final=0.1, n_steps=16,
        )
        u_pr = solve_2d(p, DEFAULT_TUPLE)
        u_dg = solve_2d(p, DEFAULT_TUPLE, variant="douglas")
        assert u_pr.shape == (11, 7)
        np.testing.assert_allclose(u_pr, u_dg, rtol=1e-10)

    def test_variants_agree_end_to_end(self):
        case = manufactured_2d(1.3, 1.7)
        p = case.problem(8, n_steps=5)
        u_pr = solve_2d(p, DEFAULT_TUPLE, variant="peaceman_rachford")
        p2 = case.problem(8, n_steps=5)
        u_dg = solve_2d(p2, DEFAULT_TUPLE, variant="douglas")
        np.testing.assert_allclose(u_pr, u_dg, rtol=1e-9)

    def test_adi_propagator_contracts(self):
        p = make_problem_2d(n_cells=8, alpha=1.4, beta=1.6, tau=0.01)
        kx, ky = build_adi_factors(p, DEFAULT_TUPLE)
        big_x, big_y = kron_lift(kx, ky)
        n = big_x.shape[0]
        eye = np.eye(n)
        s = np.linalg.solve(
            eye - big_y, np.linalg.solve(eye - big_x, (eye + big_x) @ (eye + big_y))
        )
        assert np.max(np.abs(np.linalg.eigvals(s))) < 1.0 - 1e-10



class TestPropagatorStepping:
    # n_interior = 19: 19 steps form the inverse (one lu_solve call),
    # 18 steps solve with the factors at every step
    @pytest.mark.parametrize("n_steps,lu_calls", [(19, 1), (60, 1), (18, 18)],
                             ids=["propagator-at-rule", "propagator", "lu"])
    def test_1d_matches_lu_stepping(self, n_steps, lu_calls, monkeypatch):
        p = manufactured_1d(1.5).problem(20, n_steps)
        calls = count_lu_solve(monkeypatch)
        got = solve_1d(p, return_history=True)
        assert len(calls) == lu_calls
        assert_same_trajectory(got, lu_stepped_1d(p))

    @pytest.mark.parametrize("variant", ADI_VARIANTS)
    def test_2d_matches_lu_stepping(self, variant, monkeypatch):
        # few steps on a large grid: ADI still inverts both sweep matrices
        p = manufactured_2d(1.3, 1.7).problem(12, n_steps=5)
        calls = count_lu_solve(monkeypatch)
        got = solve_2d(p, variant=variant, return_history=True)
        assert len(calls) == 2
        assert_same_trajectory(got, lu_stepped_2d(p, variant))

    @pytest.mark.parametrize("variant", ADI_VARIANTS)
    def test_2d_rectangular_matches_lu_stepping(self, variant):
        case = manufactured_2d(1.3, 1.7)
        grid_x, grid_y = Grid1D(0.0, 2.0, 12), Grid1D(0.0, 2.0, 8)
        x, y = grid_x.interior_nodes(), grid_y.interior_nodes()
        p = Problem2D(
            grid_x=grid_x, grid_y=grid_y, alpha=1.3, beta=1.7,
            d_plus=x**1.3, d_minus=2 * x**1.3, e_plus=y**1.7, e_minus=2 * y**1.7,
            forcing=case.forcing, u0=case.exact(x[:, None], y[None, :], 0.0),
            t_final=0.5, n_steps=40,
        )
        got = solve_2d(p, variant=variant, return_history=True)
        assert_same_trajectory(got, lu_stepped_2d(p, variant))


def solve_nan_forcing_1d(n_cells):
    def forcing(x, t):
        return np.full_like(x, np.nan) if t > 0.5 else np.zeros_like(x)

    p = dataclasses.replace(make_problem_1d(n_cells=n_cells, tau=0.2, n_steps=5), forcing=forcing)
    # steps sample t = 0.1, 0.3, 0.5, 0.7, 0.9: step 3 is the first t > 0.5
    with pytest.raises(ValueError, match=r"^forcing .* non-finite .* step 3 \(t = 0\.7"):
        solve_1d(p)


def solve_overflowing_forcing_1d(n_cells, n_steps):
    # tau * f overflows although f itself is finite: the state is blamed
    def forcing(x, t):
        return np.full_like(x, 1e308)

    p = dataclasses.replace(
        make_problem_1d(n_cells=n_cells, tau=10.0, n_steps=n_steps), forcing=forcing
    )
    with pytest.raises(ValueError, match=r"infs or NaNs at step 0 \(t = 5\.0"):
        solve_1d(p)


class TestNonFiniteForcing:
    # 1D: 11 unknowns with 5 (or 2) steps solve with LU factors, 3 unknowns
    # with 5 (or 3) steps use the inverse
    def test_1d_names_forcing_step_and_time(self):
        solve_nan_forcing_1d(n_cells=12)

    def test_1d_propagator_names_forcing_step_and_time(self):
        solve_nan_forcing_1d(n_cells=4)

    @pytest.mark.parametrize("variant", ["peaceman_rachford", "douglas"])
    def test_2d_names_forcing_step_and_time(self, variant):
        def forcing(x, y, t):
            f = np.zeros(np.broadcast(x, y).shape)
            if t > 0.5:
                f[1, 2] = np.inf
            return f

        p = dataclasses.replace(make_problem_2d(tau=0.2, n_steps=5), forcing=forcing)
        with pytest.raises(ValueError, match=r"^forcing .* non-finite .* step 3 \(t = 0\.7"):
            solve_2d(p, DEFAULT_TUPLE, variant=variant)

    def test_finite_forcing_keeps_original_error(self):
        solve_overflowing_forcing_1d(n_cells=12, n_steps=2)

    def test_propagator_finite_forcing_keeps_original_error(self):
        solve_overflowing_forcing_1d(n_cells=4, n_steps=3)

    @pytest.mark.parametrize("variant", ADI_VARIANTS)
    def test_2d_finite_forcing_keeps_original_error(self, variant):
        def forcing(x, y, t):
            return np.full(np.broadcast(x, y).shape, 1e308)

        p = dataclasses.replace(make_problem_2d(tau=10.0, n_steps=2), forcing=forcing)
        with pytest.raises(ValueError, match=r"infs or NaNs at step 0 \(t = 5\.0"):
            solve_2d(p, DEFAULT_TUPLE, variant=variant)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteForcingWarningsAsErrors(TestNonFiniteForcing):
    """The same cases with RuntimeWarning promoted to an error."""


class TestCoarseGrid:
    # DEFAULT_TUPLE has max shift 2: 2 interior nodes are too few, 3 enough
    def test_solve_1d_rejects_grid_by_name(self):
        p = make_problem_1d(n_cells=3, u0=np.zeros(2))
        with pytest.raises(ValueError, match="grid has 2 interior nodes; .* max shift 2"):
            solve_1d(p)

    def test_solve_2d_rejects_grid_by_name(self):
        p = make_problem_2d(n_cells=3, u0=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="grid has 2 interior nodes; .* max shift 2"):
            solve_2d(p)

    def test_smallest_grid_solves(self):
        p = make_problem_1d(n_cells=4, u0=np.ones(3))
        assert np.all(np.isfinite(solve_1d(p)))

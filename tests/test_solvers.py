import dataclasses
import functools
import json
import math
import os
import re
import sys
import tracemalloc
import types
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgecon

import wsld.operators as operators
import wsld.solvers as solvers
from wsld.coefficients import DEFAULT_TUPLE, DegenerateTupleError
from wsld.operators import Grid1D, _TwoSided
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
from wsld.spectral import CERTIFIED_TUPLES
from wsld.verification import manufactured_1d, manufactured_2d, max_error

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


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


def lu_sweep_step(u, f, tau, kx, ky, variant):
    """One ADI step as the two sweeps of ``variant``, each an LU solve.

    Peaceman-Rachford and Douglas sweep algebra written out independently of
    ``step_adi``: the oracle its one propagator is checked against.
    """
    lu_x = lu_factor(np.eye(kx.shape[0]) - kx)
    lu_y = lu_factor(np.eye(ky.shape[0]) - ky)
    if variant == "peaceman_rachford":
        u_star = lu_solve(lu_x, u + u @ ky.T + 0.5 * tau * f)
        rhs = u_star + kx @ u_star + 0.5 * tau * f
    else:
        ay_u = u @ ky.T
        u_star = lu_solve(lu_x, u + kx @ u + 2.0 * ay_u + tau * f)
        rhs = u_star - ay_u
    return lu_solve(lu_y, rhs.T).T


def lu_stepped_2d(p, variant, shifts=DEFAULT_TUPLE, shifts_y=None):
    """Reference ADI trajectory: both sweeps solve with LU factors every step."""
    kx, ky = build_adi_factors(p, shifts, shifts_y)
    x = p.grid_x.interior_nodes()[:, None]
    y = p.grid_y.interior_nodes()[None, :]
    history = [p.u0]
    for n in range(p.n_steps):
        f = p.forcing(x, y, (n + 0.5) * p.tau)
        history.append(lu_sweep_step(history[-1], f, p.tau, kx, ky, variant))
    return np.array(history)


def adi_propagator(kx, ky):
    """``(bx, cy, iy)`` for ``step_adi``, from numpy's inverses."""
    eye_x, eye_y = np.eye(kx.shape[0]), np.eye(ky.shape[0])
    iy = np.linalg.inv(eye_y - ky).T
    return (eye_x + kx) @ np.linalg.inv(eye_x - kx), (eye_y + ky).T @ iy, iy


def count_lu_solve(monkeypatch):
    """Count the library's lu_solve calls; returns the list they append to."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return lu_solve(*args, **kwargs)

    monkeypatch.setattr(solvers, "lu_solve", counting)
    return calls


def count_calls(monkeypatch, fn):
    """Count calls of ``fn`` through every ``wsld`` module that names it, the
    way the benchmark's spans wrap its entry points; returns the list of the
    shapes of their first arguments."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]) if args else None)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "wsld" or name.startswith("wsld."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def counted_forcing(forcing):
    """``forcing`` wrapped the way the benchmark's span wraps it, so its
    attributes carry over; returns the wrapper and the list of its calls."""
    calls = []

    @functools.wraps(forcing)
    def counting(*args):
        calls.append(1)
        return forcing(*args)

    return counting, calls


def traced_peak(run):
    """Peak bytes allocated through Python while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def march_extra_peak(monkeypatch, run):
    """Peak bytes that ``solvers._march`` allocates on top of what it is given."""
    extra = []
    original = solvers._march

    def measured(*args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = original(*args, **kwargs)
        extra.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    monkeypatch.setattr(solvers, "_march", measured)
    traced_peak(run)
    assert len(extra) == 1, "the solve must step through solvers._march"
    return extra[0]


def assert_same_trajectory(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.fixture
def failed_check(monkeypatch):
    """Every HODLR factorization fails its check, so a run from
    ``_HODLR_MIN_INTERIOR`` interior nodes on takes the LU fallback."""
    monkeypatch.setattr(solvers, "_hodlr", lambda op: None)


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

    @pytest.mark.parametrize("bad", [2.5, 10.0, np.float64(3.0), "4"])
    @pytest.mark.parametrize("make", [make_problem_1d, make_problem_2d])
    def test_non_integral_n_steps_rejected(self, make, bad):
        with pytest.raises(ValueError, match="^n_steps must be an integer"):
            dataclasses.replace(make(), n_steps=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    @pytest.mark.parametrize("make", [make_problem_1d, make_problem_2d])
    def test_n_steps_below_one_rejected(self, make, bad):
        with pytest.raises(ValueError, match="^n_steps must be positive$"):
            dataclasses.replace(make(), n_steps=bad)

    @pytest.mark.parametrize("bad", [True, False])
    @pytest.mark.parametrize("make", [make_problem_1d, make_problem_2d])
    def test_bool_n_steps_rejected(self, make, bad):
        with pytest.raises(ValueError, match=f"^n_steps must be an integer, got {bad}$"):
            dataclasses.replace(make(), n_steps=bad)

    @pytest.mark.parametrize("make", [make_problem_1d, make_problem_2d])
    def test_numpy_integer_n_steps_accepted(self, make):
        assert dataclasses.replace(make(), n_steps=np.int64(4)).n_steps == 4

    @pytest.mark.parametrize("make", [make_problem_1d, make_problem_2d])
    def test_step_count_past_2_53_rejected(self, make):
        # past 2**53 the half-step times (n + 0.5) * tau are no longer distinct
        assert dataclasses.replace(make(), n_steps=2**53).n_steps == 2**53
        for bad in (2**53 + 1, np.uint64(2**63), 10**302):
            with pytest.raises(ValueError, match=r"^n_steps must be at most 2\*\*53$"):
                dataclasses.replace(make(), n_steps=bad)

    @pytest.mark.parametrize(
        "bad,first",
        [
            ({"beta": 2.5, "d_plus": -1.0}, "^fractional order must lie in"),
            ({"d_minus": np.nan, "e_plus": -1.0}, "^d_minus must be finite"),
            ({"e_minus": -1.0, "u0": np.nan}, "^e_minus must be nonnegative"),
            ({"u0": np.nan, "t_final": np.nan}, "^u0 must be finite"),
        ],
    )
    def test_2d_checks_run_in_field_order(self, bad, first):
        problem = make_problem_2d()
        changes = {}
        for name, value in bad.items():
            old = getattr(problem, name)
            changes[name] = np.full_like(old, value) if isinstance(old, np.ndarray) else value
        with pytest.raises(ValueError, match=first):
            dataclasses.replace(problem, **changes)


class TestNodes:
    def test_1d_is_the_interior_nodes(self):
        p = make_problem_1d(n_cells=9)
        (x,) = p.nodes
        np.testing.assert_array_equal(x, p.grid.interior_nodes())

    def test_2d_is_a_column_and_a_row_on_a_rectangular_grid(self):
        grid_x, grid_y = Grid1D(0.0, 2.0, 7), Grid1D(0.0, 3.0, 10)
        x, y = grid_x.interior_nodes(), grid_y.interior_nodes()
        p = Problem2D(
            grid_x=grid_x, grid_y=grid_y, alpha=1.4, beta=1.6,
            d_plus=x, d_minus=x, e_plus=y, e_minus=y,
            forcing=zero_forcing_2d, u0=np.zeros((6, 9)), t_final=0.1, n_steps=1,
        )
        nx, ny = p.nodes
        assert nx.shape == (6, 1) and ny.shape == (1, 9)
        np.testing.assert_array_equal(nx, x[:, None])
        np.testing.assert_array_equal(ny, y[None, :])


class TestCrankNicolsonSystem:
    def test_row_blocked_pair_matrix_matches_one_shot_sum(self, dense_left):
        # below, at and past a multiple of the block: G in Fortran order with
        # the same bits as the one-shot sum over the dense Toeplitz oracle
        block = operators._ROW_BLOCK
        for n_interior in (block - 7, block, 3 * block + 5):
            p = make_problem_1d(n_cells=n_interior + 1)
            t = dense_left(p.alpha, DEFAULT_TUPLE, p.grid)
            ref = p.d_plus[:, None] * t + p.d_minus[:, None] * t.T
            ref *= p.tau / (2.0 * p.grid.h**p.alpha)
            op = _TwoSided.on(p.alpha, DEFAULT_TUPLE, p.grid, p.d_plus, p.d_minus, p.tau)
            g = op.dense()
            assert g.flags.f_contiguous
            np.testing.assert_array_equal(g.view(np.int64), ref.view(np.int64))

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


    def test_large_grid_holds_one_dense_matrix(self, failed_check):
        # the fallback of a failed HODLR check forms only I - G, in place:
        # no dense A, no M_plus and no transposed copy for lu_factor
        # (measured 1.13 x 8n^2)
        p = make_problem_1d(n_cells=800, n_steps=20)
        n = p.grid.n_interior
        assert traced_peak(lambda: solve_1d(p)) < 1.5 * 8 * n * n

    def test_large_grid_inverse_holds_two_dense_matrices(self):
        # n_steps >= n_interior on the largest dense grid: M_plus is dropped,
        # I - G is factored in place and the identity overwritten by the
        # inverse, so only the factors and the inverse live
        p = make_problem_1d(n_cells=600, n_steps=599)
        n = p.grid.n_interior
        assert n == p.n_steps == solvers._HODLR_MIN_INTERIOR - 1
        assert traced_peak(lambda: solve_1d(p)) < 2.5 * 8 * n * n

    def test_large_grid_history_holds_two_dense_matrices(self, failed_check):
        # a history on the fallback steps with LU solves, so the factors of
        # I - G (in its place) and the history live, plus forcing blocks:
        # measured 2.06 x 8n^2; a list stacked by np.array, or a second
        # history, makes it 3 or more
        p = make_problem_1d(n_cells=800, n_steps=799)
        n = p.grid.n_interior
        assert traced_peak(lambda: solve_1d(p, return_history=True)) < 2.4 * 8 * n * n

    @pytest.mark.parametrize("n_steps,levels", [(599, 0), (1200, 5)], ids=["stepped", "reduced"])
    def test_final_state_inverse_restored_bit_for_bit(self, n_steps, levels, monkeypatch):
        # P overwrites the inverse during the march and is halved back into
        # it, with the saved diagonal: the final u = w @ inv^T uses the
        # inverse itself, not a rounded copy
        p = dataclasses.replace(
            manufactured_1d(1.9).problem(600, n_steps), t_final=1e-2 * n_steps
        )
        assert solvers._levels(p.grid.n_interior, n_steps) == levels
        seen = {}
        inverse, march = solvers._inverse, solvers._march

        def spy_inverse(a):
            seen["inv"] = inverse(a)
            return seen["inv"].copy(order="K")  # the solver's own array, overwritten by P

        def spy_march(*args, **kwargs):
            seen["w"] = march(*args, **kwargs)
            return seen["w"]

        monkeypatch.setattr(solvers, "_inverse", spy_inverse)
        monkeypatch.setattr(solvers, "_march", spy_march)
        got = solve_1d(p)
        want = seen["w"] @ seen["inv"].T
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "n_cells,n_steps,levels,bound",
        [(600, 600, 0, 2.5), (600, 1200, 5, 5.6)],
        ids=["stepped", "reduced"],
    )
    def test_propagator_holds_the_inverse_and_its_powers(self, n_cells, n_steps, levels, bound):
        # neither M_plus nor the LU factors outlive the inverse.  Row by row
        # (n + 1 steps) it is the one matrix left; the block reduction (from
        # 2n steps) forms P = 2 (I - G)^-1 - I in the inverse's place and adds
        # P^2 .. P^16 (measured 2.13 and 5.17 x 8n^2; P beside the inverse
        # measured 6.17)
        p = make_problem_1d(n_cells=n_cells, n_steps=n_steps)
        n = p.grid.n_interior
        assert solvers._levels(n, n_steps) == levels
        assert traced_peak(lambda: solve_1d(p)) < bound * 8 * n * n

    def test_powers_fit_the_byte_budget(self):
        # only grids below the HODLR switch reach the block reduction, and
        # there P and its squares, L dense matrices, stay within 16 MiB for
        # any step count: the most is L = 5 at n = 599 (14.4 MB), since the
        # blocks of _BLOCK_BYTES lower L as n grows
        for n in range(3, solvers._HODLR_MIN_INTERIOR):
            for n_steps in (n, 2 * n, 8 * n, 2**40):
                assert solvers._levels(n, n_steps) * 8 * n * n <= 16 * 2**20

    def test_fallback_final_state_steps_with_lu_solves(self, failed_check, monkeypatch):
        # past the HODLR switch a failed check leaves even a final state of
        # 2n steps, where the dense path would reduce blocks with L = 4, to
        # one lu_solve per step: no inverse and no powers, so the factors of
        # I - G are the one dense matrix it holds (measured 1.13 x 8n^2)
        n = 1199
        p = manufactured_1d(1.5).problem(n + 1, 2 * n)
        lu_calls = count_lu_solve(monkeypatch)
        inverses = count_calls(monkeypatch, solvers._inverse)
        assert traced_peak(lambda: solve_1d(p)) < 1.5 * 8 * n * n
        assert (len(lu_calls), len(inverses)) == (2 * n, 0)

    @pytest.mark.parametrize(
        "solve,problem",
        [(solve_1d, lambda: manufactured_1d(1.9).problem(120)),
         (solve_2d, lambda: manufactured_2d(1.8, 1.9).problem(80))],
        ids=["table1", "table2"],
    )
    def test_march_holds_a_few_forcing_blocks(self, solve, problem, monkeypatch):
        # at the largest table sizes (3600 and 1600 steps) the time loop holds
        # about three blocks at a time (measured 3.03 and 3.07), so a larger
        # cap shows up in the benchmark's peak_rss_mb
        extra = march_extra_peak(monkeypatch, lambda: solve(problem()))
        assert extra < 4 * solvers._BLOCK_BYTES

    @pytest.mark.parametrize("offset", [-1, 0], ids=["dense", "in-place"])
    def test_one_stencil_table_per_solve(self, offset, failed_check, monkeypatch):
        # one table on either side of the HODLR switch, the fallback's
        # I - G in place included
        calls = count_calls(monkeypatch, operators.stencil_coeffs)
        solve_1d(make_problem_1d(n_cells=solvers._HODLR_MIN_INTERIOR + offset + 1, n_steps=2))
        assert len(calls) == 1

    def test_traced_entry_points(self, monkeypatch):
        # the benchmark's spans expect these entry points on these paths
        cn = count_calls(monkeypatch, solvers.build_cn_system)
        adi = count_calls(monkeypatch, solvers.build_adi_factors)
        left = count_calls(monkeypatch, operators.assemble_left)
        solve_1d(make_problem_1d())
        assert (len(cn), len(adi), len(left)) == (1, 0, 1)
        solve_2d(make_problem_2d())
        assert (len(cn), len(adi), len(left)) == (1, 1, 3)
        # the verification.forcing span sees one call per block of steps; the
        # 1D propagator reduces blocks of 2**L - 1 steps (here one of 127)
        for case, solve in ((manufactured_1d(1.5), solve_1d),
                            (manufactured_2d(1.3, 1.7), solve_2d)):
            p = case.problem(20)
            forcing, calls = counted_forcing(p.forcing)
            solve(dataclasses.replace(p, forcing=forcing))
            block = solvers._BLOCK_BYTES // (8 * p.u0.size)
            if solve is solve_1d:
                block = 2 ** solvers._levels(p.u0.size, p.n_steps) - 1
                assert block == 127
            assert len(calls) == math.ceil(p.n_steps / block) <= p.n_steps / 50


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda: manufactured_1d(1.9).problem(40, 20), id="1d-lu"),
     pytest.param(lambda: manufactured_1d(1.9).problem(40, 100), id="1d-lu-long"),
     pytest.param(lambda: manufactured_2d(1.3, 1.7).problem(12, n_steps=5), id="2d")],
)
def test_history_starts_at_u0_bit_for_bit(make):
    # a 1D history steps u with LU solves for any step count, also from
    # n_steps >= n where a final-state run marches w = (I - G) u; its first
    # row must be u0 itself, not u0 taken through (I - G) and back
    p = make()
    history = solve(p, return_history=True)
    np.testing.assert_array_equal(history[0].view(np.int64), p.u0.view(np.int64))


@pytest.mark.parametrize("n_steps,levels", [(599, 0), (1198, 5)], ids=["stepped", "reduced"])
def test_large_tau_inverse_paths_match_lu_oracle(n_steps, levels):
    # tau = 1e-2 on the largest dense grid, n = 599, and alpha = 1.9, where
    # cond(I - G) is 4.1e4 and the final u = (I - G)^-1 w may amplify the
    # round-off of w by up to that; measured 1.2e-13 and 1.5e-13 of max|u|
    p = dataclasses.replace(manufactured_1d(1.9).problem(600, n_steps), t_final=1e-2 * n_steps)
    n = p.grid.n_interior
    assert n == solvers._HODLR_MIN_INTERIOR - 1 and solvers._levels(n, n_steps) == levels
    ref = lu_stepped_1d(p)[-1]
    assert np.max(np.abs(solve_1d(p) - ref)) <= 5e-12 * np.max(np.abs(ref))


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
    def test_zero_state_zero_forcing_stays_zero(self):
        p = make_problem_2d()
        z = np.zeros((p.grid_x.n_interior, p.grid_y.n_interior))
        out = step_adi(z, z, p.tau, *adi_propagator(*build_adi_factors(p, DEFAULT_TUPLE)))
        np.testing.assert_array_equal(out, 0.0)

    def test_variants_agree_on_random_state(self):
        p = make_problem_2d(n_cells=8, alpha=1.3, beta=1.7)
        kx, ky = build_adi_factors(p, DEFAULT_TUPLE)
        rng = np.random.default_rng(11)
        u = rng.normal(size=(p.grid_x.n_interior, p.grid_y.n_interior))
        f = rng.normal(size=u.shape)
        stepped = step_adi(u, f, p.tau, *adi_propagator(kx, ky))
        for variant in ADI_VARIANTS:
            swept = lu_sweep_step(u, f, p.tau, kx, ky, variant)
            np.testing.assert_allclose(stepped, swept, rtol=1e-10)

    @pytest.mark.parametrize("variant", ["peaceman_rachford", "douglas"])
    def test_step_matches_dense_factored_solve(self, variant):
        # the step and the variant's own sweeps both solve the factored equation
        p = make_problem_2d(n_cells=6, alpha=1.2, beta=1.8)
        kx, ky = build_adi_factors(p, DEFAULT_TUPLE)
        big_x, big_y = kron_lift(kx, ky)
        n = big_x.shape[0]
        eye = np.eye(n)
        rng = np.random.default_rng(12)
        u = rng.normal(size=(p.grid_x.n_interior, p.grid_y.n_interior))
        f = rng.normal(size=u.shape)
        rhs = (eye + big_x) @ (eye + big_y) @ u.ravel(order="F") + p.tau * f.ravel(order="F")
        dense = np.linalg.solve((eye - big_x) @ (eye - big_y), rhs)
        for got in (
            step_adi(u, f, p.tau, *adi_propagator(kx, ky)),
            lu_sweep_step(u, f, p.tau, kx, ky, variant),
        ):
            np.testing.assert_allclose(got.ravel(order="F"), dense, rtol=1e-10)


@PROPERTY_SETTINGS
@given(
    shifts=st.tuples(st.sampled_from(CERTIFIED_TUPLES), st.sampled_from(CERTIFIED_TUPLES)),
    orders=st.tuples(*[st.floats(1.05, 1.95)] * 2),
    n_cells=st.tuples(*[st.integers(6, 24)] * 2).filter(lambda n: n[0] != n[1]),
    tau=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_equals_both_sweeps(shifts, orders, n_cells, tau, seed):
    grid_x, grid_y = Grid1D(0.0, 2.0, n_cells[0]), Grid1D(0.0, 2.0, n_cells[1])
    x, y = grid_x.interior_nodes(), grid_y.interior_nodes()
    (alpha, beta), rng = orders, np.random.default_rng(seed)
    u = rng.normal(size=(len(x), len(y)))
    p = Problem2D(
        grid_x=grid_x, grid_y=grid_y, alpha=alpha, beta=beta,
        d_plus=x**alpha, d_minus=2 * x**alpha, e_plus=y**beta, e_minus=2 * y**beta,
        forcing=zero_forcing_2d, u0=u, t_final=tau, n_steps=1,
    )
    try:
        kx, ky = build_adi_factors(p, *shifts)
    except DegenerateTupleError:
        assume(False)
    f = rng.normal(size=u.shape)
    stepped = step_adi(u, f, tau, *adi_propagator(kx, ky))
    for variant in ADI_VARIANTS:
        swept = lu_sweep_step(u, f, tau, kx, ky, variant)
        assert np.max(np.abs(stepped - swept)) <= 1e-10 * np.max(np.abs(swept))


class TestSolve2D:
    def test_zero_data_stays_zero(self):
        p = make_problem_2d(u0=np.zeros((5, 5)))
        u = solve_2d(p, DEFAULT_TUPLE)
        np.testing.assert_array_equal(u, 0.0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match=r"^variant must be one of .* got 'upwind'"):
            solve_2d(make_problem_2d(), DEFAULT_TUPLE, variant="upwind")

    @pytest.mark.parametrize(
        "reduced,full",
        [
            (lambda x, y, t: np.sin(x + t), lambda x, y, t: np.sin(x + t) + 0.0 * y),
            (lambda x, y, t: np.cos(y - t), lambda x, y, t: np.cos(y - t) + 0.0 * x),
            (lambda x, y, t: 1.0, lambda x, y, t: np.ones(np.broadcast(x, y).shape)),
        ],
        ids=["x-only", "y-only", "scalar"],
    )
    def test_forcing_constant_along_an_axis_broadcasts(self, reduced, full):
        p = manufactured_2d(1.3, 1.7).problem(8, n_steps=4)
        np.testing.assert_array_equal(
            solve_2d(dataclasses.replace(p, forcing=reduced)),
            solve_2d(dataclasses.replace(p, forcing=full)),
        )

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
        # nx < ny with a different tuple per axis exercises the sweep/transpose
        # bookkeeping; checked against each variant's LU sweeps
        case = manufactured_2d(1.3, 1.7)
        grid_x, grid_y = Grid1D(0.0, 2.0, 8), Grid1D(0.0, 2.0, 14)
        x, y = grid_x.interior_nodes(), grid_y.interior_nodes()
        p = Problem2D(
            grid_x=grid_x, grid_y=grid_y, alpha=1.3, beta=1.7,
            d_plus=x**1.3, d_minus=2 * x**1.3, e_plus=y**1.7, e_minus=2 * y**1.7,
            forcing=case.forcing, u0=case.exact(x[:, None], y[None, :], 0.0),
            t_final=0.1, n_steps=16,
        )
        shifts_y = (1, 2, 1, -3, 1, 2, 1, -2)
        for variant in ADI_VARIANTS:
            got = solve_2d(p, DEFAULT_TUPLE, shifts_y, variant=variant, return_history=True)
            assert got.shape == (17, 7, 13)
            assert_same_trajectory(got, lu_stepped_2d(p, variant, DEFAULT_TUPLE, shifts_y))

    def test_variants_agree_end_to_end(self):
        # both names are accepted and select the one propagator
        p = manufactured_2d(1.3, 1.7).problem(8, n_steps=5)
        u_pr, u_dg = (solve_2d(p, DEFAULT_TUPLE, variant=v) for v in ADI_VARIANTS)
        np.testing.assert_array_equal(u_pr, u_dg)

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
    # n_interior = 19: a final state from 19 steps on forms the inverse (one
    # lu_solve call); 18 steps, or a history of any length, solve with the
    # factors at every step and never form the inverse
    @pytest.mark.parametrize(
        "n_steps,history,lu_calls",
        [(19, False, 1), (60, False, 1), (18, True, 18), (60, True, 60)],
        ids=["propagator-at-rule", "propagator", "lu", "lu-history"],
    )
    def test_1d_matches_lu_stepping(self, n_steps, history, lu_calls, monkeypatch):
        p = manufactured_1d(1.5).problem(20, n_steps)
        calls = count_lu_solve(monkeypatch)
        got = solve_1d(p, return_history=history)
        assert len(calls) == lu_calls
        ref = lu_stepped_1d(p)
        assert_same_trajectory(got, ref if history else ref[-1])

    @pytest.mark.parametrize("variant", ADI_VARIANTS)
    def test_2d_matches_lu_stepping(self, variant, monkeypatch):
        # few steps on a large grid: ADI still inverts both sweep matrices
        p = manufactured_2d(1.3, 1.7).problem(12, n_steps=5)
        calls = count_lu_solve(monkeypatch)
        got = solve_2d(p, variant=variant, return_history=True)
        assert len(calls) == 2
        assert_same_trajectory(got, lu_stepped_2d(p, variant))

    @pytest.mark.parametrize("variant", ADI_VARIANTS)
    def test_2d_steps_through_module_step_adi(self, variant, monkeypatch):
        # the benchmark times solvers.step_adi through the module global
        steps = []
        original = solvers.step_adi

        def counting(*args):
            steps.append(1)
            return original(*args)

        monkeypatch.setattr(solvers, "step_adi", counting)
        lu_calls = count_lu_solve(monkeypatch)
        p = manufactured_2d(1.3, 1.7).problem(8, n_steps=7)
        solve_2d(p, variant=variant)
        assert len(steps) == p.n_steps
        assert len(lu_calls) == 2

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


class TestAssemblySwitch:
    # n_interior = _HODLR_MIN_INTERIOR - 1 takes I - G from build_cn_system;
    # from the constant on, a run whose HODLR check fails writes it alone, in
    # place.  Neither side applies I + G, so neither builds the FFT stencil
    # routine.  Both run a 20-step history with LU solves ("lu") and an
    # n-step final state ("inverse"), which below the switch takes the
    # inverse (one lu_solve call) and on the fallback steps with LU solves,
    # never calling _inverse; measured at most 6.5e-14 x max|u| from the
    # dense M_plus oracle.
    @pytest.mark.parametrize("offset", [-1, 0], ids=["system", "in-place"])
    @pytest.mark.parametrize("backend", ["lu", "inverse"])
    def test_matches_lu_stepping(self, offset, backend, failed_check, monkeypatch):
        n = solvers._HODLR_MIN_INTERIOR + offset
        n_steps = 20 if backend == "lu" else n
        p = manufactured_1d(1.5).problem(n + 1, n_steps)
        builds = count_calls(monkeypatch, operators._toeplitz_pair)
        lu_calls = count_lu_solve(monkeypatch)
        inverses = count_calls(monkeypatch, solvers._inverse)
        history = backend == "lu"
        got = solve_1d(p, return_history=history)
        assert builds == []
        stepped = history or offset == 0
        assert (len(lu_calls), len(inverses)) == ((n_steps, 0) if stepped else (1, 1))
        ref = lu_stepped_1d(p)
        assert_same_trajectory(got, ref if history else ref[-1])


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


def test_numpy_runtime_warning_is_an_error():
    # pyproject.toml promotes RuntimeWarning to an error in every test, so a
    # numpy warning that leaks from the library fails the suite
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        np.divide(np.ones(1), 0.0)


def declared(forcing):
    forcing.broadcasts_over_t = True
    return forcing


@pytest.fixture
def three_row_blocks(monkeypatch):
    """Cap the forcing blocks at three steps of a problem with ``size`` unknowns."""
    return lambda size: monkeypatch.setattr(solvers, "_BLOCK_BYTES", 3 * 8 * size)


# 8 steps in blocks of 3: steps 0-2, 3-5 and 6-7.  11 unknowns with 8 steps
# solve with LU factors; 3 unknowns step a final state through the
# propagator P and a history with the LU factors.
BLOCK_SIDES = [
    pytest.param(lambda: make_problem_1d(n_cells=12, tau=0.2, n_steps=8), id="1d-lu"),
    pytest.param(lambda: make_problem_1d(n_cells=4, tau=0.2, n_steps=8), id="1d-propagator"),
    pytest.param(lambda: make_problem_2d(n_cells=6, tau=0.2, n_steps=8), id="2d"),
]


def solve(p, **kwargs):
    return (solve_1d if isinstance(p, Problem1D) else solve_2d)(p, **kwargs)


@pytest.mark.parametrize("make", BLOCK_SIDES)
@pytest.mark.parametrize("declare", [False, True], ids=["per-step", "declared"])
class TestForcingBlocks:
    def blocked(self, make, declare, three_row_blocks, forcing):
        # forcing(s, t) on the nodes s (x in 1D, x + y in 2D); t may be a column
        p = make()
        three_row_blocks(p.u0.size)

        def f(*args):
            return forcing(args[0] if len(args) == 2 else args[0] + args[1], args[-1])

        return dataclasses.replace(p, forcing=declared(f) if declare else f)

    def test_non_finite_sample_named_inside_second_block(self, make, declare, three_row_blocks):
        # step 4 is the middle row of the second block
        p = self.blocked(make, declare, three_row_blocks,
                         lambda s, t: np.where(np.abs(t - 0.9) < 0.05, np.nan, 0.0 * s))
        t = re.escape(repr(4.5 * p.tau))
        message = rf"^forcing returned a non-finite value at step 4 \(t = {t}\)$"
        with pytest.raises(ValueError, match=message):
            solve(p)

    def test_non_finite_sample_named_in_last_row_of_partial_block(
        self, make, declare, three_row_blocks
    ):
        # steps 6-7 form the last block; step 7 is its last row
        p = self.blocked(make, declare, three_row_blocks,
                         lambda s, t: np.where(np.abs(t - 1.5) < 0.05, np.nan, 0.0 * s))
        t = re.escape(repr(7.5 * p.tau))
        message = rf"^forcing returned a non-finite value at step 7 \(t = {t}\)$"
        with pytest.raises(ValueError, match=message):
            solve(p)

    def test_state_overflowing_mid_block_is_named(self, make, declare, three_row_blocks):
        # tau = 10: tau f overflows at step 4 only, the middle row of the
        # second block, while f stays finite, so the state is blamed there
        p = self.blocked(make, declare, three_row_blocks,
                         lambda s, t: np.where(np.abs(t - 45.0) < 1.0, 1e308, 0.0 * s))
        p = dataclasses.replace(p, t_final=80.0)
        with pytest.raises(ValueError, match=r"^state has infs or NaNs at step 4 \(t = 45\.0\)$"):
            solve(p)

    def test_overflowing_sample_blames_state_at_step_0(self, make, declare, three_row_blocks):
        p = self.blocked(make, declare, three_row_blocks, lambda s, t: np.full_like(s, 1e308))
        p = dataclasses.replace(p, t_final=80.0)
        with pytest.raises(ValueError, match=r"^state has infs or NaNs at step 0 \(t = 5\.0\)$"):
            solve(p)

    def test_calls_per_block_or_per_step(self, make, declare, three_row_blocks):
        p = self.blocked(make, declare, three_row_blocks, lambda s, t: np.sin(s + t))
        forcing, calls = counted_forcing(p.forcing)
        solve(dataclasses.replace(p, forcing=forcing))
        assert len(calls) == (math.ceil(8 / 3) if declare else 8)

    def test_matches_one_step_blocks(self, make, declare, three_row_blocks, monkeypatch):
        # bit for bit: a history steps row by row on every side, each step
        # reading its own forcing row, so the block size cannot change it
        p = self.blocked(make, declare, three_row_blocks, lambda s, t: np.sin(s + t))
        got = solve(p, return_history=True)
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", 1)
        ref = solve(p, return_history=True)
        np.testing.assert_array_equal(got, ref)

    def test_time_independent_sample_broadcasts(self, make, declare, three_row_blocks):
        # a declared forcing may ignore t and return one sample for the block
        p = self.blocked(make, declare, three_row_blocks, lambda s, t: np.cos(s))
        full = self.blocked(make, False, three_row_blocks, lambda s, t: np.cos(s))
        np.testing.assert_array_equal(solve(p, return_history=True),
                                      solve(full, return_history=True))

    def test_wrong_shape_named(self, make, declare, three_row_blocks):
        p = self.blocked(make, declare, three_row_blocks,
                         lambda s, t: np.zeros(s.shape[:-1] + (s.shape[-1] + 1,)))
        with pytest.raises(ValueError, match=r"^forcing returned shape \(.*\) (at t|for 3 times)"):
            solve(p)


def test_reduced_block_vouches_for_the_states_it_skips():
    # u -> 0.9 u + g: the state after step 1 overflows (0.9e308 + 1e308),
    # but the pairwise sums of the block, 1e308 and 0.9e308 - 0.9e308, end
    # finite at 0.81e308; the reduction must decline and the row loop name it
    p = 0.9 * np.eye(3)
    g = np.array([[1.0], [1.0], [-0.9]]) * np.full(3, 1e308)

    def forcing(t):  # the rows of g at the block's times, one call per block
        return g[: len(t)]

    forcing.broadcasts_over_t = True
    problem = types.SimpleNamespace(forcing=forcing, nodes=(), n_steps=3, tau=1.0)
    march = (lambda u, h: p @ u + h, np.zeros(3), problem, False)
    with pytest.raises(ValueError, match=r"^state has infs or NaNs at step 1 \(t = 1\.5\)$"):
        solvers._march(*march, powers=[p, p @ p])
    # the same block well inside the float range is reduced to the stepped state
    g /= 1e300
    stepped = solvers._march(*march)
    assert_same_trajectory(solvers._march(*march, powers=[p, p @ p]), stepped)


def test_propagator_names_a_final_state_that_overflows(monkeypatch):
    # a finite march whose conversion u = w (I - G)^-T overflows: w is the
    # largest float times the signs of the inverse's row of largest l1 norm
    p = manufactured_1d(1.5).problem(16)
    assert p.n_steps >= p.grid.n_interior  # the propagator's route
    inv = np.linalg.inv(build_cn_system(p)[0])
    row = inv[np.argmax(np.abs(inv).sum(axis=1))]
    assert np.abs(row).sum() > 1.05
    march = solvers._march

    def spy(*args, **kwargs):
        w = march(*args, **kwargs)
        assert np.isfinite(w).all()
        return np.finfo(float).max * np.sign(row)

    monkeypatch.setattr(solvers, "_march", spy)
    t = re.escape(repr((p.n_steps - 0.5) * p.tau))
    message = rf"^state has infs or NaNs at step {p.n_steps - 1} \(t = {t}\)$"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=message):
            solve_1d(p)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


BENCH_TUPLES = ((1, 2, 1, 0, 1, 2, 1, -2), (1, 2, 1, -3, 1, 2, 1, -2))
HODLR_MIN = solvers._HODLR_MIN_INTERIOR


def dense_solve_1d(p, shifts=DEFAULT_TUPLE, **kwargs):
    """``solve_1d`` with the HODLR threshold out of reach: the dense path."""
    with patch.object(solvers, "_HODLR_MIN_INTERIOR", math.inf):
        return solve_1d(p, shifts, **kwargs)


def cond_1(m):
    """LAPACK's estimate of the 1-norm condition number of ``m``."""
    rcond, info = dgecon(lu_factor(m)[0], np.abs(m).sum(axis=0).max(), norm="1")
    assert info == 0
    return 1.0 / rcond


def outcome_1d(solve, p, **kwargs):
    """The solution, or the message of the ValueError the solve raises."""
    try:
        return solve(p, **kwargs)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    half=st.integers(0, 250),
    odd=st.booleans(),
    alpha=st.floats(1.05, 1.95),
    log_tau=st.floats(-6.0, -1.0),
    shifts=st.sampled_from(BENCH_TUPLES),
    n_steps=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_hodlr_matches_dense_lu(half, odd, alpha, log_tau, shifts, n_steps, seed):
    # from the switch to 500 nodes past it, odd and even n: one solve, a
    # final state and a history against dense LU.  Both sit within round-off
    # of cond_1(I - G) eps of each other; over 48 histories of 20 steps at
    # n = 1000, 1001, 1500 and 1501, alpha 1.05, 1.5 and 1.95, both tuples
    # and tau 1e-6 and 1e-1 the distance was at most 6e-17 cond_1 + 6.2e-14
    # of max|u| (1.3e-11 at alpha 1.95, tau 0.1 and n = 1501, where cond_1
    # is 7.0e6).
    n = HODLR_MIN + 2 * half + odd
    tau = 10.0**log_tau
    p = dataclasses.replace(manufactured_1d(alpha).problem(n + 1, n_steps), t_final=n_steps * tau)
    m_minus = build_cn_system(p, shifts)[0]
    bound = 1e-12 + 1e-15 * cond_1(m_minus)
    b = np.random.default_rng(seed).normal(size=n)
    ref = lu_solve(lu_factor(m_minus), b)
    got = solvers._hodlr(solvers._operator_1d(p, shifts))(b.copy())
    assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))
    for history in (False, True):
        ref = dense_solve_1d(p, shifts, return_history=history)
        got = solve_1d(p, shifts, return_history=history)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))


@pytest.mark.parametrize("steps_per_node", [1, 4])
def test_long_runs_match_the_lu_fallback(steps_per_node, request):
    # final states at n = 600 after n and 4 n steps of tau = 1/n_steps: the
    # HODLR steps and the fallback's LU solves stay within round-off of each
    # other (measured 6.7e-14 and 4.9e-13 of max|u|; 3.1e-12 at both counts
    # when every split was truncated alone)
    p = manufactured_1d(1.7).problem(HODLR_MIN + 1, steps_per_node * HODLR_MIN)
    got = solve_1d(p, BENCH_TUPLES[1])
    request.getfixturevalue("failed_check")
    ref = solve_1d(p, BENCH_TUPLES[1])
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "constant,value,widths",
    [("_HODLR_SKETCH", 4, [4, 8, 16, 32]), ("_HODLR_TOL", 0.0, [32, 64, 128])],
    ids=["doubled-until-it-passes", "no-width-passes"],
)
def test_hankel_sketch_widths(constant, value, widths, monkeypatch, request):
    # a first width of 4, below the block ranks, is doubled to 32 before its
    # probes pass, and the run matches dense LU within
    # test_hodlr_matches_dense_lu's bound; a zero tolerance fails every width
    # up to half the 300-row Hankel matrix, and the run is the fallback's
    p = manufactured_1d(1.7).problem(HODLR_MIN + 1, 5)
    sketches, chunked = [], solvers._chunked

    def counting(h, x):
        sketches.append(x.shape[1])
        return chunked(h, x)

    monkeypatch.setattr(solvers, "_chunked", counting)
    monkeypatch.setattr(solvers, constant, value)
    got = solve_1d(p, BENCH_TUPLES[1], return_history=True)
    passed = constant == "_HODLR_SKETCH"
    # each width samples 10 probe columns more; a pass ends with q = H^T p
    assert sketches == [w + 10 for w in widths] + widths[-1:] * passed
    if passed:
        ref = dense_solve_1d(p, BENCH_TUPLES[1], return_history=True)
        bound = 1e-12 + 1e-15 * cond_1(build_cn_system(p, BENCH_TUPLES[1])[0])
        assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))
    else:
        request.getfixturevalue("failed_check")
        ref = solve_1d(p, BENCH_TUPLES[1], return_history=True)
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


class TestHodlr:
    def test_benchmark_cases_stay_within_reference_bound(self):
        # the two large_cn1d solves, against the bench's recorded max_error
        # and its round-off bound 1e-10 + 1e-9 ref (off by -4.3e-13 and
        # -3.9e-12)
        with open(os.path.join(os.path.dirname(__file__), "..", "bench", "reference.json")) as fh:
            reference = json.load(fh)
        for shifts, alpha, n_cells in ((BENCH_TUPLES[0], 1.3, 2000), (BENCH_TUPLES[1], 1.7, 3000)):
            case = manufactured_1d(alpha)
            p = case.problem(n_cells, 100)
            assert solvers._hodlr(solvers._operator_1d(p, shifts)) is not None
            err = max_error(solve_1d(p, shifts), case.exact(p.grid.interior_nodes(), 1.0))
            tuple_id = ",".join(map(str, shifts))
            key = f"large_cn1d/({tuple_id})/alpha={alpha}/n_cells={n_cells}/n_steps=100"
            want = reference[key]["max_error"]
            assert abs(err - want) <= 1e-10 + 1e-9 * want

    def test_benchmark_cases_match_the_lu_fallback(self, request):
        # the two large_cn1d final states against the fallback's LU solves
        # (measured 2.2e-13 and 3.7e-12 of max|u|; 2.4e-13 and 6.5e-11 when
        # every split was truncated alone)
        cases = ((BENCH_TUPLES[0], 1.3, 2000), (BENCH_TUPLES[1], 1.7, 3000))
        problems = [(manufactured_1d(alpha).problem(n_cells, 100), shifts)
                    for shifts, alpha, n_cells in cases]
        got = [solve_1d(p, shifts) for p, shifts in problems]
        request.getfixturevalue("failed_check")
        for (p, shifts), hodlr in zip(problems, got):
            ref = solve_1d(p, shifts)
            assert np.max(np.abs(hodlr - ref)) <= 2e-11 * np.max(np.abs(ref))

    def test_levels_share_one_v_per_orientation(self, monkeypatch):
        # at n = 1999 each level stores one Vt of shape (2, r, half), with
        # orthonormal rows past its zero padding, which every split's Y and
        # K^-1 share; the level takes two QRs whatever its split count (one
        # per factor of its Hankel block)
        op = solvers._operator_1d(manufactured_1d(1.3).problem(2000, 1), BENCH_TUPLES[0])
        qrs, qr, stacks = [], np.linalg.qr, solvers._stacks

        def spied(*args):
            # count the QRs of the build only, not those of the Hankel sketch
            monkeypatch.setattr(np.linalg, "qr", lambda a: qrs.append(a.shape) or qr(a))
            try:
                return stacks(*args)
            finally:
                monkeypatch.setattr(np.linalg, "qr", qr)

        monkeypatch.setattr(solvers, "_stacks", spied)
        leaves, levels = solvers._hodlr(op).args[0]
        nodes = len(leaves) * leaves.shape[1]
        assert len(levels) > 2
        for d, (kinv, vt, y) in enumerate(levels):
            r, half = vt.shape[1], nodes >> (d + 1)
            assert vt.shape == (2, r, half)
            assert y.shape == (2**d, 2, half, r) and kinv.shape == (2**d, 2 * r, 2 * r)
            for v in vt:
                gram = v @ v.T
                np.testing.assert_allclose(gram, np.diag(np.diag(gram).round()), atol=1e-13)
        assert len(qrs) == 2 * len(levels)

    def test_stacks_take_under_a_tenth_of_one_dense_matrix(self):
        # the large_cn1d factorization at n_cells 3000, leaves and levels:
        # measured 0.090 x 8n^2 (0.108 when every split stored its own Vt)
        p = manufactured_1d(1.7).problem(3000, 100)
        leaves, levels = solvers._hodlr(solvers._operator_1d(p, BENCH_TUPLES[1])).args[0]
        n = p.grid.n_interior
        stacks = leaves.nbytes + sum(a.nbytes for level in levels for a in level)
        assert stacks <= 0.10 * 8 * n * n

    @pytest.mark.parametrize("coefficients", ["zero", "left-only", "random"])
    def test_other_coefficients_match_dense_lu(self, coefficients):
        # zero coefficients leave G = 0 and every block of rank 0; one-sided
        # and random ones (zeros included) are not proportional, so the
        # weighted norm that makes a certified G dissipative does not apply
        p = manufactured_1d(1.4).problem(HODLR_MIN + 2, 6)
        rng = np.random.default_rng(3)
        c_plus, c_minus = {
            "zero": (np.zeros(p.u0.size), np.zeros(p.u0.size)),
            "left-only": (p.d_plus, np.zeros(p.u0.size)),
            "random": rng.uniform(0.0, 2.0, (2, p.u0.size)) * (rng.random((2, p.u0.size)) > 0.3),
        }[coefficients]
        p = dataclasses.replace(p, d_plus=c_plus, d_minus=c_minus)
        assert solvers._hodlr(solvers._operator_1d(p, DEFAULT_TUPLE)) is not None
        got, ref = solve_1d(p, return_history=True), dense_solve_1d(p, return_history=True)
        bound = 1e-12 + 1e-15 * cond_1(build_cn_system(p)[0])
        assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))

    def test_two_runs_are_bit_identical(self):
        # the sketch has a fixed seed, so the factorization is the same every run
        p = manufactured_1d(1.6).problem(HODLR_MIN + 2, 12)
        first, second = (solve_1d(p, return_history=True) for _ in range(2))
        np.testing.assert_array_equal(first.view(np.int64), second.view(np.int64))

    def test_holds_far_less_than_one_dense_matrix(self):
        # the large_cn1d solve at n_cells 3000 never forms I - G: measured
        # 0.122 x 8n^2 (0.160 when every split was truncated alone), against
        # 1.13 on the dense path; the peak is the build of the root split,
        # on top of the stacks below it
        p = manufactured_1d(1.7).problem(3000, 100)
        n = p.grid.n_interior
        assert traced_peak(lambda: solve_1d(p, BENCH_TUPLES[1])) < 0.175 * 8 * n * n

    @pytest.mark.parametrize(
        "forcing,t_final",
        [(lambda x, t: np.full_like(x, np.nan) if t > 0.5 else np.zeros_like(x), 1.0),
         (lambda x, t: np.full_like(x, 1e308), 50.0),
         (lambda x, t: np.full_like(x, 1e308 if abs(t - 45.0) < 1.0 else 0.0), 50.0)],
        ids=["nan-forcing-step-3", "overflow-step-0", "overflow-step-4"],
    )
    def test_non_finite_errors_name_the_dense_step(self, forcing, t_final):
        p = dataclasses.replace(
            make_problem_1d(n_cells=HODLR_MIN + 1, n_steps=5), forcing=forcing, t_final=t_final
        )
        assert solvers._hodlr(solvers._operator_1d(p, DEFAULT_TUPLE)) is not None
        for history in (False, True):
            got = outcome_1d(solve_1d, p, return_history=history)
            assert isinstance(got, str)
            assert got == outcome_1d(dense_solve_1d, p, return_history=history)

    def test_leaves_factor_through_the_module_lu_factor(self, monkeypatch):
        # the benchmark's solvers.lu_factor span sees every leaf: each is
        # inverted alone, then stacked, and all have one size
        factored = count_calls(monkeypatch, solvers.lu_factor)
        op = solvers._operator_1d(make_problem_1d(n_cells=HODLR_MIN + 1), DEFAULT_TUPLE)
        leaves, _ = solvers._hodlr(op).args[0]
        assert len(factored) == len(leaves) > 1
        assert leaves.shape[1] <= solvers._HODLR_LEAF
        assert set(factored) == {leaves.shape[1:]}

    def test_equal_splits_over_zero_coefficient_padding(self):
        # n = 603 takes 8 leaves of 76 nodes, 5 of them padded: every split of
        # a level has equal halves, and a solve of zero-padded columns leaves
        # exact zeros on the padded rows
        op = solvers._operator_1d(manufactured_1d(1.5).problem(HODLR_MIN + 4, 2), DEFAULT_TUPLE)
        leaves, levels = stacks = solvers._hodlr(op).args[0]
        n, nodes, depth = len(op.a), len(leaves) * leaves.shape[1], len(levels)
        assert len(leaves) == 2**depth
        assert [len(kinv) for kinv, *_ in levels] == [2**d for d in range(depth)]
        halves = [(2**d, 2, nodes >> (d + 1)) for d in range(depth)]
        assert [y.shape[:3] for *_, y in levels] == halves
        assert 0 < nodes - n < 2**depth
        x = np.zeros((nodes, 3))
        x[:n] = np.random.default_rng(2).normal(size=(n, 3))
        assert not solvers._apply(stacks, x)[n:].any()

    @pytest.mark.parametrize("n_cells", [951, 1008, 1026])
    def test_block_of_columns_matches_dense_lu(self, n_cells):
        # the one batched apply that serves the steps and the build, on many
        # right-hand sides at once, within test_hodlr_matches_dense_lu's bound
        p = manufactured_1d(1.8).problem(n_cells, 10)
        m_minus = build_cn_system(p, BENCH_TUPLES[1])[0]
        bound = 1e-12 + 1e-15 * cond_1(m_minus)
        b = np.random.default_rng(5).normal(size=(len(m_minus), 7))
        ref = lu_solve(lu_factor(m_minus), b)
        given = b.copy()
        got = solvers._hodlr(solvers._operator_1d(p, BENCH_TUPLES[1]))(b)
        np.testing.assert_array_equal(b, given)
        assert got.shape == b.shape
        assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))

    def test_failed_check_falls_back_to_dense_lu(self, monkeypatch):
        # a check bound below the backward error of any solve (measured at
        # most 1.6e-16) rejects every factorization
        p = manufactured_1d(1.5).problem(HODLR_MIN + 1, 7)
        monkeypatch.setattr(solvers, "_HODLR_CHECK", 1e-20)
        assert solvers._hodlr(solvers._operator_1d(p, DEFAULT_TUPLE)) is None
        got = solve_1d(p, return_history=True)
        np.testing.assert_array_equal(got, dense_solve_1d(p, return_history=True))

    def test_overflowing_probe_falls_back_quietly(self):
        # with d_minus = 0 and shift 0, I - G is lower triangular with an
        # enormous inverse (dense LU solves the probe to max 1.7e221) and
        # the HODLR probe solve overflows; its check must fail without a
        # RuntimeWarning (pyproject.toml promotes them to errors) and leave
        # the run to the dense path, which finishes
        p = manufactured_1d(1.05).problem(HODLR_MIN + 1, 3)
        p = dataclasses.replace(p, d_minus=np.zeros(p.u0.size), t_final=0.03)
        assert solvers._hodlr(solvers._operator_1d(p, (0,))) is None
        np.testing.assert_array_equal(solve_1d(p, (0,)), dense_solve_1d(p, (0,)))

    def test_ill_conditioned_real_input_passes_the_check(self):
        # the hardest of README "Known deviations" 4's 36 inputs, a certified
        # tuple at alpha 1.93 with random coefficients: cond_1(I - G) is
        # 4.4e8, the probe's backward error measured 1.6e-14 against the
        # bound 1e-13 (1.15e-14 when every split was truncated alone), and
        # the run matched dense LU to 1.9e-8 of max|u|, inside
        # 1e-12 + 1e-15 cond_1
        shifts = (1, 2, 1, 0, 1, -1, 1, -2)
        assert shifts in [t.shifts for t in CERTIFIED_TUPLES]
        p = dataclasses.replace(manufactured_1d(1.93).problem(2000, 3), t_final=0.03)
        rng = np.random.default_rng(0)
        c_plus, c_minus = (
            rng.uniform(0.0, 2.0, (2, p.u0.size)) * (rng.random((2, p.u0.size)) > 0.3)
        )
        p = dataclasses.replace(p, d_plus=c_plus, d_minus=c_minus)
        assert solvers._hodlr(solvers._operator_1d(p, shifts)) is not None
        got = solve_1d(p, shifts, return_history=True)
        ref = dense_solve_1d(p, shifts, return_history=True)
        bound = 1e-12 + 1e-15 * cond_1(build_cn_system(p, shifts)[0])
        assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestHodlrWarningsAsErrors(TestHodlr):
    """The same cases with RuntimeWarning promoted to an error."""

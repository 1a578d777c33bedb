"""Property-based checks of operator structure over random shift tuples."""

import dataclasses
from unittest.mock import patch

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve, toeplitz

from wsld.coefficients import DegenerateTupleError
from wsld.spectral import CERTIFIED_TUPLES
from wsld.operators import Grid1D, _TwoSided, apply_stencil, assemble_left, table_for_grid
import wsld.solvers as solvers
from wsld.solvers import (
    ADI_VARIANTS,
    Problem1D,
    build_cn_system,
    solve_1d,
    solve_2d,
)
from wsld.verification import manufactured_1d, manufactured_2d

# derandomized so the suite is reproducible; the draws still cover tuples
# that no hand-written case lists
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

tuples_8 = st.tuples(*[st.integers(-3, 3)] * 8)
alphas = st.floats(1.05, 1.95, exclude_min=True, exclude_max=True)
n_cells = st.integers(8, 40)
# apply_stencil goes through the FFT; the larger draws cover transforms of
# length 2048
stencil_n_cells = st.one_of(n_cells, st.integers(601, 1000))


def operator_or_reject(alpha, shifts, grid):
    try:
        return assemble_left(alpha, shifts, grid)
    except DegenerateTupleError:
        assume(False)


@PROPERTY_SETTINGS
@given(shifts=tuples_8, alpha=alphas, n=stencil_n_cells, seed=st.integers(0, 2**32 - 1))
def test_stencil_matches_dense_matvec_and_transpose(shifts, alpha, n, seed):
    grid = Grid1D(0.0, 2.0, n)
    a = operator_or_reject(alpha, shifts, grid)
    table = table_for_grid(alpha, shifts, grid)
    u = np.random.default_rng(seed).normal(size=grid.n_interior)
    for side, matrix in (("left", a), ("right", a.T)):
        dense = grid.h**-alpha * (matrix @ u)
        fast = apply_stencil(side, table, grid, u)
        assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


@PROPERTY_SETTINGS
@given(shifts=tuples_8, alpha=alphas, n=stencil_n_cells, seed=st.integers(0, 2**32 - 1))
def test_two_sided_matvec_matches_dense(shifts, alpha, n, seed):
    # G x through the FFT pair on the stencil read off A's first row and column
    grid = Grid1D(0.0, 2.0, n)
    rng = np.random.default_rng(seed)
    c_plus, c_minus = rng.uniform(0.0, 2.0, (2, grid.n_interior))
    try:
        op = _TwoSided.on(alpha, shifts, grid, c_plus, c_minus, tau=rng.uniform(1e-3, 1.0))
    except DegenerateTupleError:
        assume(False)
    phi, m = op.stencil()
    row = np.zeros(grid.n_interior)
    row[: m + 1] = phi[m::-1]
    np.testing.assert_array_equal(op.a, toeplitz(phi[m:], row))
    x = rng.normal(size=grid.n_interior)
    dense = op.dense() @ x
    assert np.max(np.abs(op.matvec(x) - dense)) <= 1e-12 * np.max(np.abs(dense))


@PROPERTY_SETTINGS
@given(shifts=tuples_8, alpha=alphas, n=n_cells)
def test_cn_matrices_sum_to_twice_identity(shifts, alpha, n):
    grid = Grid1D(0.0, 2.0, n)
    a = operator_or_reject(alpha, shifts, grid)
    x = grid.interior_nodes()
    tau = grid.h**2
    p = Problem1D(
        grid=grid, alpha=alpha, d_plus=x**alpha, d_minus=2 * x**alpha,
        forcing=lambda x, t: np.zeros_like(x), u0=np.zeros(grid.n_interior),
        t_final=tau, n_steps=1,
    )
    m_minus, m_plus = build_cn_system(p, shifts)
    total = m_minus + m_plus
    off = ~np.eye(grid.n_interior, dtype=bool)
    np.testing.assert_array_equal(total[off], 0.0)
    # On the diagonal fl(1 - g) + fl(1 + g) is exactly 2 while |g| < 1; past
    # that, rounding 1 + g can leave it one unit of 1 + |g| away.
    g = np.diag(tau / (2.0 * grid.h**alpha) * (p.d_plus[:, None] * a + p.d_minus[:, None] * a.T))
    diag = np.diag(total)
    small = np.abs(g) < 1.0
    np.testing.assert_array_equal(diag[small], 2.0)
    assert np.all(np.abs(diag - 2.0) <= np.spacing(1.0 + np.abs(g)))


@PROPERTY_SETTINGS
@given(
    shifts=tuples_8,
    alpha=alphas,
    n=n_cells,
    reach=st.floats(1e-2, 1e1),
    seed=st.integers(0, 2**32 - 1),
)
def test_cn_step_never_applies_i_plus_g(shifts, alpha, n, reach, seed):
    # (I - G)^-1 (I + G) = 2 (I - G)^-1 - I = (I + G) (I - G)^-1, so a CN step
    # is (I - G)^-1 (2u + tau f) - u.  tau is set so that max|G_ii| = reach,
    # past 1 in most draws.  Both sides differ by the round-off of the
    # inverse: over 17000 random draws like these, at most 0.50 (matrices)
    # and 0.65 (step) of n eps cond_1(I - G) times max(1, max|P|) and
    # max|u| + tau max|f|, against the bound 2 below.
    grid = Grid1D(0.0, 2.0, n)
    rng = np.random.default_rng(seed)
    c_plus, c_minus = rng.uniform(0.0, 2.0, (2, grid.n_interior))
    try:
        unit = _TwoSided.on(alpha, shifts, grid, c_plus, c_minus, tau=1.0).dense()
    except DegenerateTupleError:
        assume(False)
    diag = np.max(np.abs(np.diag(unit)))
    assume(diag > 0.0)
    tau = reach / diag
    u0, f = rng.normal(size=(2, grid.n_interior))
    p = Problem1D(
        grid=grid, alpha=alpha, d_plus=c_plus, d_minus=c_minus,
        forcing=lambda x, t: f, u0=u0, t_final=tau, n_steps=1,
    )
    m_minus, m_plus = build_cn_system(p, shifts)
    cond = np.linalg.cond(m_minus, 1)
    assume(cond < 1e8)
    scale = 2.0 * grid.n_interior * np.finfo(float).eps * cond
    inv = solvers._inverse(m_minus.copy(order="F"))
    cayley = solvers._cayley(inv)
    for ref in (inv @ m_plus, m_plus @ inv):
        assert np.max(np.abs(cayley - ref)) <= scale * max(1.0, np.max(np.abs(ref)))
    ref = lu_solve(lu_factor(m_minus), m_plus @ u0 + tau * f)
    bound = scale * (np.max(np.abs(u0)) + tau * np.max(np.abs(f)))
    assert np.max(np.abs(solve_1d(p, shifts) - ref)) <= bound


def undeclared(forcing):
    """The same forcing without its ``broadcasts_over_t`` declaration."""
    return lambda *args: forcing(*args)


def outcome(solve, problem, *args, **kwargs):
    """The trajectory, or the message when a random tuple's run blows up."""
    try:
        return solve(problem, *args, return_history=True, **kwargs)
    except DegenerateTupleError:
        assume(False)
    except ValueError as exc:
        return str(exc)


def assert_declaration_changes_nothing(solve, p, rows, *args, **kwargs):
    # forcing blocks of `rows` steps, so most runs span several blocks
    with patch.object(solvers, "_BLOCK_BYTES", rows * 8 * p.u0.size):
        got = outcome(solve, p, *args, **kwargs)
        plain = dataclasses.replace(p, forcing=undeclared(p.forcing))
        plain = outcome(solve, plain, *args, **kwargs)
    assert type(got) is type(plain)
    assert np.array_equal(got, plain) if isinstance(got, np.ndarray) else got == plain


@PROPERTY_SETTINGS
@given(
    shifts=tuples_8,
    alpha=alphas,
    n=st.integers(6, 40),
    n_steps=st.integers(1, 80),  # both sides of the inverse-or-LU rule n_steps >= n - 1
    rows=st.integers(1, 9),
)
def test_declared_forcing_solves_bit_identical_1d(shifts, alpha, n, n_steps, rows):
    p = manufactured_1d(alpha).problem(n, n_steps)
    assert_declaration_changes_nothing(solve_1d, p, rows, shifts)


@PROPERTY_SETTINGS
@given(
    shifts=st.tuples(tuples_8, tuples_8),
    orders=st.tuples(alphas, alphas),
    n=st.integers(6, 16),
    n_steps=st.integers(1, 30),
    rows=st.integers(1, 9),
    variant=st.sampled_from(ADI_VARIANTS),
)
def test_declared_forcing_solves_bit_identical_2d(shifts, orders, n, n_steps, rows, variant):
    p = manufactured_2d(*orders).problem(n, n_steps)
    assert_declaration_changes_nothing(solve_2d, p, rows, *shifts, variant=variant)


def final_or_message(problem, shifts, return_history):
    """The final state, or the message when the run blows up."""
    try:
        u = solve_1d(problem, shifts, return_history=return_history)
    except DegenerateTupleError:
        assume(False)
    except ValueError as exc:
        return str(exc)
    return u[-1] if return_history else u


def assert_same_final_state(got, ref):
    # assert_same_trajectory's bound in tests/test_solvers.py, or the same error
    assert type(got) is type(ref)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@PROPERTY_SETTINGS
@given(
    shifts=st.sampled_from(CERTIFIED_TUPLES),
    alpha=alphas,
    n=st.integers(4, 60) | st.integers(61, solvers._HODLR_MIN_INTERIOR - 1),
    levels=st.integers(1, 3),
    extra=st.integers(0, 15),
)
def test_block_reduction_matches_stepping_1d(shifts, alpha, n, levels, extra):
    # propagator path with blocks of 1, 3 and 7 steps, up to the largest
    # dense grid; from 2n steps on every last block length occurs, and
    # the reduced final state is the LU-stepped one (a history steps with
    # the LU factors).  Certified tuples keep the run bounded: an
    # uncertified tuple can grow like 1e179 over 2n steps, and then any
    # reordering of the sums moves the result by that growth times round-off.
    n_steps = 2 * n + extra
    p = manufactured_1d(alpha).problem(n + 1, n_steps)
    with patch.object(solvers, "_BLOCK_BYTES", (2**levels - 1) * 8 * n):
        assert solvers._levels(n, n_steps) == levels
        got = final_or_message(p, shifts, return_history=False)
        ref = final_or_message(p, shifts, return_history=True)
    assert_same_final_state(got, ref)


@PROPERTY_SETTINGS
@given(
    shifts=tuples_8,
    alpha=alphas,
    n=st.integers(4, 40),
    levels=st.integers(1, 3),
    full=st.integers(0, 3),
    tail=st.integers(0, 7),
)
def test_block_reduction_matches_stepping_any_count(shifts, alpha, n, levels, full, tail):
    # _march itself, so the step count may be 1, 2**L - 1, 2**L or any other
    block = 2**levels - 1
    n_steps = full * block + min(tail, block)
    assume(n_steps >= 1)
    p = manufactured_1d(alpha).problem(n + 1, n_steps)
    try:
        m_minus, m_plus = build_cn_system(p, shifts)
    except DegenerateTupleError:
        assume(False)
    inv = np.linalg.inv(m_minus)
    prop = inv @ m_plus
    powers = [prop]
    while len(powers) < levels:
        powers.append(powers[-1] @ powers[-1])
    march = (lambda u, f: prop @ u + p.tau * f, p.u0, p, False)
    results = []
    for kwargs in ({}, {"powers": powers}):
        try:
            results.append(solvers._march(*march, **kwargs))
        except ValueError as exc:
            results.append(str(exc))
    assert_same_final_state(results[1], results[0])

"""Property-based checks of operator structure over random shift tuples."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wsld.coefficients import DegenerateTupleError
from wsld.operators import Grid1D, _TwoSided, apply_stencil, assemble_left, table_for_grid
from wsld.solvers import _FFT_MIN_INTERIOR, Problem1D, build_cn_system

# derandomized so the suite is reproducible; the draws still cover tuples
# that no hand-written case lists
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

tuples_8 = st.tuples(*[st.integers(-3, 3)] * 8)
alphas = st.floats(1.05, 1.95, exclude_min=True, exclude_max=True)
n_cells = st.integers(8, 40)
# apply_stencil always goes through the FFT; the larger draws cover the grids
# where solve_1d switches to it too
stencil_n_cells = st.one_of(n_cells, st.integers(_FFT_MIN_INTERIOR + 1, _FFT_MIN_INTERIOR + 400))


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
    rng = np.random.default_rng(seed)
    u = rng.normal(size=grid.n_interior)
    c_plus, c_minus = rng.uniform(0.0, 2.0, (2, grid.n_interior))
    op = _TwoSided.on(alpha, shifts, grid, c_plus, c_minus, tau=0.1)
    pairs = [(op.dense() @ u, op.fft()(u))]  # the two-sided operator's two forms
    for side, matrix in (("left", a), ("right", a.T)):
        pairs.append((grid.h**-alpha * (matrix @ u), apply_stencil(side, table, grid, u)))
    for dense, fast in pairs:
        assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


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

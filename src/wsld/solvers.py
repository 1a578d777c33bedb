"""Crank-Nicolson (1D) and ADI (2D) time stepping for variable-coefficient
space-fractional diffusion with WSLD spatial operators.

1D:  u_t = d_plus(x) * D_left^alpha u + d_minus(x) * D_right^alpha u + f
is advanced by

    [I - tau/(2 h^alpha) (D+ A + D- A^T)] U^{n+1}
        = [I + tau/(2 h^alpha) (D+ A + D- A^T)] U^n + tau F^{n+1/2},

with the matrix LU-factored once per run.  2D adds the y-direction analog
and factors the implicit operator into two one-dimensional sweeps
(Peaceman-Rachford or Douglas form; the two are algebraically equivalent).
Interior unknowns are stored as arrays ``u[i, j] = u(x_i, y_j)``; the
x-operator acts as ``kx @ u`` and the y-operator as ``u @ ky.T``, and the
Kronecker-product form of the scheme is never materialized.

The matrices never change during a run, so where it pays the factors are
turned into explicit inverses once and every step is a dense product:
always for the two ADI sweep matrices, and in 1D when the run has at least
as many steps as unknowns (forming the inverse costs about ``2 n^3`` flops
and saves only the per-step ``lu_solve`` call overhead, so large 1D grids
with few steps keep solving with the factors).  Products do not reject
infs or NaNs, so the time loop checks every new state itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .coefficients import DEFAULT_TUPLE, ShiftTuple, validate_order
from .operators import Grid1D, assemble_left

__all__ = [
    "ADI_VARIANTS",
    "Problem1D",
    "Problem2D",
    "build_cn_system",
    "solve_1d",
    "build_adi_factors",
    "step_adi",
    "solve_2d",
]

ADI_VARIANTS = ("peaceman_rachford", "douglas")


def _finite_array(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _coefficient_array(values, n: int, name: str) -> np.ndarray:
    arr = _finite_array(values, (n,), name)
    if np.any(arr < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _check_schedule(t_final: float, n_steps: int) -> None:
    if not (np.isfinite(t_final) and t_final >= 0.0):
        raise ValueError("t_final must be finite and nonnegative")
    if n_steps < 1:
        raise ValueError("n_steps must be positive")


@dataclass
class Problem1D:
    """1D fractional diffusion problem on the interior of a uniform grid.

    ``d_plus``/``d_minus`` hold the finite, nonnegative diffusion
    coefficients at the interior nodes, ``forcing(x, t)`` must broadcast over
    node arrays, and ``u0`` is the finite interior initial data.  Non-finite
    or negative data raise ``ValueError`` naming the argument.
    ``tau = t_final / n_steps``.
    """

    grid: Grid1D
    alpha: float
    d_plus: np.ndarray
    d_minus: np.ndarray
    forcing: Callable[[np.ndarray, float], np.ndarray]
    u0: np.ndarray
    t_final: float
    n_steps: int

    def __post_init__(self) -> None:
        self.alpha = validate_order(self.alpha)
        n = self.grid.n_interior
        self.d_plus = _coefficient_array(self.d_plus, n, "d_plus")
        self.d_minus = _coefficient_array(self.d_minus, n, "d_minus")
        self.u0 = _finite_array(self.u0, (n,), "u0")
        _check_schedule(self.t_final, self.n_steps)

    @property
    def tau(self) -> float:
        return self.t_final / self.n_steps


@dataclass
class Problem2D:
    """2D fractional diffusion problem with separable coefficients.

    The x coefficients depend on x only and the y coefficients on y only
    (this separability is what makes the two ADI sweep matrices independent
    of the slice index).  ``u0`` and the solution are arrays of shape
    ``(n_x - 1, n_y - 1)`` indexed ``[i, j] -> (x_i, y_j)``; ``forcing(x, y, t)``
    must broadcast column-vector x against row-vector y.  Coefficients and
    ``u0`` are validated as in ``Problem1D``.
    """

    grid_x: Grid1D
    grid_y: Grid1D
    alpha: float
    beta: float
    d_plus: np.ndarray
    d_minus: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    forcing: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    u0: np.ndarray
    t_final: float
    n_steps: int

    def __post_init__(self) -> None:
        self.alpha = validate_order(self.alpha)
        self.beta = validate_order(self.beta)
        nx, ny = self.grid_x.n_interior, self.grid_y.n_interior
        self.d_plus = _coefficient_array(self.d_plus, nx, "d_plus")
        self.d_minus = _coefficient_array(self.d_minus, nx, "d_minus")
        self.e_plus = _coefficient_array(self.e_plus, ny, "e_plus")
        self.e_minus = _coefficient_array(self.e_minus, ny, "e_minus")
        self.u0 = _finite_array(self.u0, (nx, ny), "u0")
        _check_schedule(self.t_final, self.n_steps)

    @property
    def tau(self) -> float:
        return self.t_final / self.n_steps


def _inverse(a: np.ndarray) -> np.ndarray:
    """Explicit inverse of ``a`` from its LU factors."""
    return lu_solve(lu_factor(a), np.eye(len(a)))


def _march(
    step: Callable[[np.ndarray, np.ndarray], np.ndarray],
    u0: np.ndarray,
    sample: Callable[[float], np.ndarray],
    n_steps: int,
    tau: float,
    return_history: bool,
) -> np.ndarray:
    """Advance ``u0`` by ``n_steps`` calls ``u = step(u, sample(t_{n+1/2}))``.

    A non-finite state raises ``ValueError``: naming the forcing, the step
    and its time when that step's forcing sample is non-finite, otherwise
    saying the state has infs or NaNs at that step.  Overflow and invalid
    floating-point warnings are off inside the loop, since the check reports
    their result.
    """
    u = u0.copy()
    history = [u] if return_history else None
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            t_mid = (n + 0.5) * tau
            f_mid = np.asarray(sample(t_mid), dtype=float)
            u = step(u, f_mid)
            if not np.isfinite(u).all():
                culprit = "state has infs or NaNs"
                if not np.isfinite(f_mid).all():
                    culprit = "forcing returned a non-finite value"
                raise ValueError(f"{culprit} at step {n} (t = {t_mid!r})")
            if history is not None:
                history.append(u)
    return np.array(history) if history is not None else u


def _scaled_pair_matrix(
    alpha: float,
    shifts: ShiftTuple | Sequence[int],
    grid: Grid1D,
    c_plus: np.ndarray,
    c_minus: np.ndarray,
    tau: float,
) -> np.ndarray:
    """tau/(2 h^alpha) * (diag(c+) A + diag(c-) A^T) as a dense array."""
    a = assemble_left(alpha, shifts, grid)
    scale = tau / (2.0 * grid.h**alpha)
    return scale * (c_plus[:, None] * a + c_minus[:, None] * a.T)


def build_cn_system(
    problem: Problem1D, shifts: ShiftTuple | Sequence[int] = DEFAULT_TUPLE
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the Crank-Nicolson step matrices (M_minus, M_plus).

    ``M_minus = I - G`` and ``M_plus = I + G`` with
    ``G = tau/(2 h^alpha) (D+ A + D- A^T)``, so ``M_minus + M_plus = 2 I``
    exactly off the diagonal and wherever ``|G_ii| < 1``; a larger ``G_ii``
    can leave the diagonal one rounding unit of ``1 + |G_ii|`` from 2.
    """
    g = _scaled_pair_matrix(
        problem.alpha, shifts, problem.grid, problem.d_plus, problem.d_minus, problem.tau
    )
    eye = np.eye(problem.grid.n_interior)
    return eye - g, eye + g


def solve_1d(
    problem: Problem1D,
    shifts: ShiftTuple | Sequence[int] = DEFAULT_TUPLE,
    return_history: bool = False,
) -> np.ndarray:
    """March the 1D scheme to t_final and return the interior solution.

    The left-hand matrix is LU-factored once (it does not depend on time).
    When ``n_steps >= n_interior`` its inverse is formed from the factors and
    each step is a matrix-vector product; otherwise each step solves with
    the factors.  The two agree to round-off.  The forcing is sampled
    pointwise at the half steps ``t_{n+1/2}``; a non-finite sample raises
    ``ValueError`` naming the step and its time, and any other non-finite
    state one saying it has infs or NaNs.  With ``return_history=True`` the
    full ``(n_steps+1, n)`` trajectory is returned instead of the final
    slice.
    """
    m_minus, m_plus = build_cn_system(problem, shifts)
    if problem.n_steps >= problem.grid.n_interior:
        inv = _inverse(m_minus)
        solve = lambda rhs: inv @ rhs
    else:
        lu = lu_factor(m_minus)
        solve = lambda rhs: lu_solve(lu, rhs, check_finite=False)
    x = problem.grid.interior_nodes()
    tau = problem.tau
    return _march(
        lambda u, f: solve(m_plus @ u + tau * f),
        problem.u0,
        lambda t: problem.forcing(x, t),
        problem.n_steps,
        tau,
        return_history,
    )


def build_adi_factors(
    problem: Problem2D,
    shifts_x: ShiftTuple | Sequence[int] = DEFAULT_TUPLE,
    shifts_y: ShiftTuple | Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Direction-operator blocks (kx, ky) of the split 2D scheme.

    ``kx`` acts on x-slices as ``kx @ u`` and ``ky`` on y-slices as
    ``u @ ky.T``; both already carry the tau/(2 h^order) scaling.  Their
    Kronecker lifts commute because the coefficients are separable.
    """
    if shifts_y is None:
        shifts_y = shifts_x
    kx = _scaled_pair_matrix(
        problem.alpha, shifts_x, problem.grid_x, problem.d_plus, problem.d_minus, problem.tau
    )
    ky = _scaled_pair_matrix(
        problem.beta, shifts_y, problem.grid_y, problem.e_plus, problem.e_minus, problem.tau
    )
    return kx, ky


def step_adi(
    u: np.ndarray,
    f_mid: np.ndarray,
    tau: float,
    kx: np.ndarray,
    ky: np.ndarray,
    inv_x: np.ndarray,
    inv_y: np.ndarray,
    variant: str = "peaceman_rachford",
) -> np.ndarray:
    """One ADI step from u^n to u^{n+1} with forcing sampled mid-step.

    ``inv_x``/``inv_y`` are the inverses of (I - kx) and (I - ky), so each
    sweep is a dense product (``inv_x @ r`` for x, ``r @ inv_y.T`` for y).
    Both variants solve the same factored equation

        (I - Ax)(I - Ay) u^{n+1} = (I + Ax)(I + Ay) u^n + tau f^{n+1/2},

    so they agree to round-off; they differ only in the intermediate sweep
    algebra.  Non-finite input gives a non-finite result, not an error.
    """
    if variant == "peaceman_rachford":
        rhs = u + u @ ky.T + 0.5 * tau * f_mid
        u_star = inv_x @ rhs
        rhs = u_star + kx @ u_star + 0.5 * tau * f_mid
        return rhs @ inv_y.T
    if variant == "douglas":
        ay_u = u @ ky.T
        rhs = u + kx @ u + 2.0 * ay_u + tau * f_mid
        u_star = inv_x @ rhs
        return (u_star - ay_u) @ inv_y.T
    raise ValueError(f"variant must be one of {ADI_VARIANTS}, got {variant!r}")


def solve_2d(
    problem: Problem2D,
    shifts_x: ShiftTuple | Sequence[int] = DEFAULT_TUPLE,
    shifts_y: ShiftTuple | Sequence[int] | None = None,
    variant: str = "peaceman_rachford",
    return_history: bool = False,
) -> np.ndarray:
    """March the 2D ADI scheme to t_final.

    Exactly two LU factorizations are computed per run -- one (n_x-1) system
    shared by all x-sweeps and one (n_y-1) system shared by all y-sweeps --
    because the separable coefficients make the sweep matrices identical
    across slices.  Each is turned into an explicit inverse once (about one
    step's worth of flops), so every ``step_adi`` is dense products only.
    A non-finite forcing sample raises ``ValueError`` naming the step and
    its time, and any other non-finite state one saying it has infs or NaNs.
    """
    if variant not in ADI_VARIANTS:
        raise ValueError(f"variant must be one of {ADI_VARIANTS}, got {variant!r}")
    kx, ky = build_adi_factors(problem, shifts_x, shifts_y)
    inv_x = _inverse(np.eye(len(kx)) - kx)
    inv_y = _inverse(np.eye(len(ky)) - ky)
    x = problem.grid_x.interior_nodes()[:, None]
    y = problem.grid_y.interior_nodes()[None, :]
    tau = problem.tau
    return _march(
        lambda u, f: step_adi(u, f, tau, kx, ky, inv_x, inv_y, variant),
        problem.u0,
        lambda t: problem.forcing(x, y, t),
        problem.n_steps,
        tau,
        return_history,
    )

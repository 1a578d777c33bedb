"""Crank-Nicolson (1D) and ADI (2D) time stepping for variable-coefficient
space-fractional diffusion with WSLD spatial operators.

1D:  u_t = d_plus(x) * D_left^alpha u + d_minus(x) * D_right^alpha u + f
is advanced by

    [I - tau/(2 h^alpha) (D+ A + D- A^T)] U^{n+1}
        = [I + tau/(2 h^alpha) (D+ A + D- A^T)] U^n + tau F^{n+1/2},

with the matrix factored once per run.  2D adds the y-direction analog and
factors the implicit operator into two one-dimensional sweeps
(Peaceman-Rachford or Douglas form; the two are algebraically equivalent).
Interior unknowns are stored as arrays ``u[i, j] = u(x_i, y_j)``; the
x-operator acts as ``kx @ u`` and the y-operator as ``u @ ky.T``, and the
Kronecker-product form of the scheme is never materialized.
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


def _check_forcing(f: np.ndarray, n: int, t: float) -> None:
    """Raise naming step n and time t when the forcing sample f is not finite."""
    if not np.all(np.isfinite(f)):
        raise ValueError(f"forcing returned a non-finite value at step {n} (t = {t!r})")


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

    The left-hand matrix is LU-factored once (it does not depend on time)
    and the forcing is sampled pointwise at the half steps ``t_{n+1/2}``; a
    non-finite sample raises ``ValueError`` naming the step and its time.
    With ``return_history=True`` the full ``(n_steps+1, n)`` trajectory is
    returned instead of the final slice.
    """
    m_minus, m_plus = build_cn_system(problem, shifts)
    lu = lu_factor(m_minus)
    x = problem.grid.interior_nodes()
    tau = problem.tau
    u = problem.u0.copy()
    history = [u.copy()] if return_history else None
    for n in range(problem.n_steps):
        t_mid = (n + 0.5) * tau
        f_mid = np.asarray(problem.forcing(x, t_mid), dtype=float)
        rhs = m_plus @ u + tau * f_mid
        try:
            u = lu_solve(lu, rhs)
        except ValueError:
            _check_forcing(f_mid, n, t_mid)
            raise
        if history is not None:
            history.append(u.copy())
    return np.array(history) if history is not None else u


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
    lu_x,
    lu_y,
    variant: str = "peaceman_rachford",
) -> np.ndarray:
    """One ADI step from u^n to u^{n+1} with forcing sampled mid-step.

    ``lu_x``/``lu_y`` are LU factorizations of (I - kx) and (I - ky).  Both
    variants solve the same factored equation

        (I - Ax)(I - Ay) u^{n+1} = (I + Ax)(I + Ay) u^n + tau f^{n+1/2},

    so they agree to round-off; they differ only in the intermediate sweep
    algebra.
    """
    if variant == "peaceman_rachford":
        rhs = u + u @ ky.T + 0.5 * tau * f_mid
        u_star = lu_solve(lu_x, rhs)
        rhs = u_star + kx @ u_star + 0.5 * tau * f_mid
        return lu_solve(lu_y, rhs.T).T
    if variant == "douglas":
        ay_u = u @ ky.T
        rhs = u + kx @ u + 2.0 * ay_u + tau * f_mid
        u_star = lu_solve(lu_x, rhs)
        rhs = u_star - ay_u
        return lu_solve(lu_y, rhs.T).T
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
    across slices.  A non-finite forcing sample raises ``ValueError`` naming
    the step and its time.
    """
    if variant not in ADI_VARIANTS:
        raise ValueError(f"variant must be one of {ADI_VARIANTS}, got {variant!r}")
    kx, ky = build_adi_factors(problem, shifts_x, shifts_y)
    lu_x = lu_factor(np.eye(kx.shape[0]) - kx)
    lu_y = lu_factor(np.eye(ky.shape[0]) - ky)
    x = problem.grid_x.interior_nodes()[:, None]
    y = problem.grid_y.interior_nodes()[None, :]
    tau = problem.tau
    u = problem.u0.copy()
    history = [u.copy()] if return_history else None
    for n in range(problem.n_steps):
        t_mid = (n + 0.5) * tau
        f_mid = np.asarray(problem.forcing(x, y, t_mid), dtype=float)
        try:
            u = step_adi(u, f_mid, tau, kx, ky, lu_x, lu_y, variant)
        except ValueError:
            _check_forcing(f_mid, n, t_mid)
            raise
        if history is not None:
            history.append(u.copy())
    return np.array(history) if history is not None else u

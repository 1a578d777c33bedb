"""Manufactured solutions, error norms and convergence-rate studies.

The benchmark exact solution is ``sin(t+1) * B(x)`` in 1D and
``sin(t+1) * B(x) * B(y)`` in 2D on the square (0, 2), with the bump
``B(s) = s**4 (2-s)**4`` vanishing to 4th order at both boundaries, and
coefficients ``d_plus = x**alpha``, ``d_minus = 2 x**alpha`` (likewise in
y with beta).  The forcing is assembled analytically from the exact
monomial derivative rule, never by numerical quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coefficients import DEFAULT_TUPLE, ShiftTuple, validate_order
from .operators import Grid1D, rl_exact_poly
from .solvers import _MAX_STEPS, ADI_VARIANTS, Problem1D, Problem2D, solve_1d, solve_2d

__all__ = [
    "DOMAIN",
    "PROFILE_POWERS",
    "PROFILE_COEFFS",
    "profile",
    "ManufacturedCase",
    "manufactured_1d",
    "manufactured_2d",
    "max_error",
    "ConvergenceTable",
    "observed_rate",
    "convergence_study",
]

DOMAIN = (0.0, 2.0)

# x**4 (2-x)**4 expanded in powers of x.
PROFILE_POWERS = (4, 5, 6, 7, 8)
PROFILE_COEFFS = (16.0, -32.0, 24.0, -8.0, 1.0)


def profile(s: np.ndarray) -> np.ndarray:
    """The polynomial bump s**4 (2-s)**4."""
    return s**4 * (2.0 - s) ** 4


def _two_sided_rl(alpha: float, s: np.ndarray) -> np.ndarray:
    """d_plus * D_left + d_minus * D_right of the bump, at coefficient x**alpha.

    Equals ``s**alpha * (L(s) + 2 R(s))`` with L, R the exact left/right
    derivatives of the bump; both expansions share the same coefficients by
    the symmetry of the bump about s = 1.
    """
    left = rl_exact_poly("left", alpha, PROFILE_POWERS, PROFILE_COEFFS, s, DOMAIN)
    right = rl_exact_poly("right", alpha, PROFILE_POWERS, PROFILE_COEFFS, s, DOMAIN)
    return s**alpha * (left + 2.0 * right)


def _step_count(t_final: float, tau: float) -> int:
    """``round(t_final / tau)``, at least 1.  A quotient past ``_MAX_STEPS``,
    infinite ones included, gives ``_MAX_STEPS + 1``, which the problem
    rejects by name instead of building a huge integer or overflowing."""
    return max(1, round(min(t_final / tau, _MAX_STEPS + 1)))


def _node_memo(build: Callable[..., tuple]) -> Callable[..., tuple]:
    """One-slot cache of ``build(*nodes)``.

    The slot is keyed on private copies of the node arrays, compared by
    shape and values, so a caller mutating its arrays in place or
    alternating grids gets a fresh evaluation.  Key and value are stored as
    one tuple, and a build that raises stores nothing.
    """
    slot: tuple | None = None

    def cached(*nodes: np.ndarray) -> tuple:
        nonlocal slot
        entry = slot
        if entry is None or not all(map(np.array_equal, entry[0], nodes)):
            entry = (tuple(s.copy() for s in nodes), build(*nodes))
            slot = entry
        return entry[1]

    return cached


@dataclass
class ManufacturedCase:
    """A problem with a known exact solution and analytically built forcing.

    ``exact`` takes ``(x, t)`` in 1D or ``(x, y, t)`` in 2D and broadcasts
    over node arrays.  ``problem(n_cells, ...)`` discretizes the case on a
    uniform grid; the default step count follows the tau = h**2 law.
    """

    dimension: int
    alpha: float
    beta: float | None
    exact: Callable[..., np.ndarray]
    forcing: Callable[..., np.ndarray]
    t_final: float = 1.0

    def problem(self, n_cells: int, n_steps: int | None = None):
        if not (np.isfinite(self.t_final) and self.t_final >= 0.0):  # before the default n_steps
            raise ValueError("t_final must be finite and nonnegative")
        grid = Grid1D(*DOMAIN, n_cells)
        if n_steps is None:
            n_steps = _step_count(self.t_final, grid.h**2)
        if self.dimension == 1:
            x = grid.interior_nodes()
            return Problem1D(
                grid=grid,
                alpha=self.alpha,
                d_plus=x**self.alpha,
                d_minus=2.0 * x**self.alpha,
                forcing=self.forcing,
                u0=self.exact(x, 0.0),
                t_final=self.t_final,
                n_steps=n_steps,
            )
        x = grid.interior_nodes()[:, None]
        y = grid.interior_nodes()[None, :]
        return Problem2D(
            grid_x=grid,
            grid_y=grid,
            alpha=self.alpha,
            beta=self.beta,
            d_plus=(x**self.alpha).ravel(),
            d_minus=2.0 * (x**self.alpha).ravel(),
            e_plus=(y**self.beta).ravel(),
            e_minus=2.0 * (y**self.beta).ravel(),
            forcing=self.forcing,
            u0=self.exact(x, y, 0.0),
            t_final=self.t_final,
            n_steps=n_steps,
        )


def _minus_sine_term(out: np.ndarray, t: np.ndarray, space: np.ndarray) -> np.ndarray:
    """``out - sin(t + 1) * space`` written into ``out``, the block of cosine
    terms with one row per time of the column ``t``.

    The products go through a scratch of an eighth of the rows (at least
    one), so ``out`` stays the one block-sized array.  Each row takes the
    same operations in the same order as the one-shot expression for a
    scalar time, so the block is bit-identical to stacked scalar calls.
    """
    sin_t = np.sin(t + 1.0)
    rows = max(1, len(out) // 8)
    scratch = np.empty_like(out[:rows])
    for s in range(0, len(out), rows):
        chunk = out[s : s + rows]
        chunk -= np.multiply(sin_t[s : s + rows], space, out=scratch[: len(chunk)])
    return out


def manufactured_1d(alpha: float) -> ManufacturedCase:
    """1D benchmark: exact solution sin(t+1) B(x) on (0, 2), t in (0, 1].

    The coefficients are ``d_plus = x**alpha``, ``d_minus = 2 x**alpha``
    (so the stability hypothesis holds with kappa = 2), and the forcing is
    ``cos(t+1) B(x) - sin(t+1) * [two-sided derivative of B]``.  Its
    time-independent factors, B(x) and the two-sided derivative, are
    computed once per distinct node array (same shape and values); each
    call then only combines them with ``cos(t+1)`` and ``sin(t+1)``.  The
    forcing declares ``broadcasts_over_t``: a column of times gives one row
    of samples per time, so the solvers sample many steps per call.  On a
    column the result is the one block-sized array it allocates, and it is
    bit-identical to stacked scalar calls (``_minus_sine_term``).
    """
    alpha = validate_order(alpha)
    spatial = _node_memo(lambda s: (profile(s), _two_sided_rl(alpha, s)))

    def exact(x, t):
        return np.sin(t + 1.0) * profile(np.asarray(x, dtype=float))

    def forcing(x, t):
        p, r = spatial(np.asarray(x, dtype=float))
        if np.ndim(t) <= np.ndim(r):
            return np.cos(t + 1.0) * p - np.sin(t + 1.0) * r
        return _minus_sine_term(np.cos(t + 1.0) * p, t, r)

    forcing.broadcasts_over_t = True
    return ManufacturedCase(dimension=1, alpha=alpha, beta=None, exact=exact, forcing=forcing)


def manufactured_2d(alpha: float, beta: float) -> ManufacturedCase:
    """2D benchmark: exact solution sin(t+1) B(x) B(y) on (0, 2)^2.

    The forcing splits along the product structure: the x-direction
    two-sided derivative is multiplied by B(y) and vice versa.  As in 1D,
    B(x), B(y) and the sum of the two products are computed once per
    distinct pair of node arrays, and the forcing declares
    ``broadcasts_over_t``; on a column of times it allocates one
    block-sized array, its result, as in 1D.
    """
    alpha = validate_order(alpha)
    beta = validate_order(beta)

    def parts(x, y):
        px, py = profile(x), profile(y)
        return px, py, _two_sided_rl(alpha, x) * py + px * _two_sided_rl(beta, y)

    spatial = _node_memo(parts)

    def exact(x, y, t):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.sin(t + 1.0) * profile(x) * profile(y)

    def forcing(x, y, t):
        px, py, space = spatial(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        if np.ndim(t) <= np.ndim(space):
            return np.cos(t + 1.0) * px * py - np.sin(t + 1.0) * space
        return _minus_sine_term(np.cos(t + 1.0) * px * py, t, space)

    forcing.broadcasts_over_t = True
    return ManufacturedCase(dimension=2, alpha=alpha, beta=beta, exact=exact, forcing=forcing)


def max_error(numeric: np.ndarray, exact_at_nodes: np.ndarray) -> float:
    """Maximum absolute difference over interior nodes."""
    numeric = np.asarray(numeric, dtype=float)
    exact_at_nodes = np.asarray(exact_at_nodes, dtype=float)
    if numeric.shape != exact_at_nodes.shape:
        raise ValueError(
            f"shape mismatch: {numeric.shape} vs {exact_at_nodes.shape}"
        )
    return float(np.max(np.abs(numeric - exact_at_nodes)))


@dataclass
class ConvergenceTable:
    """Rows of (h, tau, max_error, rate) from a refinement study.

    ``rate_i = ln(error_{i-1}/error_i) / ln(h_{i-1}/h_i)``; the first row
    has no rate.
    """

    rows: list[tuple[float, float, float, float | None]]

    def rates(self) -> list[float | None]:
        return [row[3] for row in self.rows]

    def errors(self) -> list[float]:
        return [row[2] for row in self.rows]


def observed_rate(e_coarse: float, e_fine: float, h_coarse: float, h_fine: float) -> float:
    """Log-ratio convergence rate between two refinement levels."""
    return float(np.log(e_coarse / e_fine) / np.log(h_coarse / h_fine))


def convergence_study(
    case: ManufacturedCase,
    shifts: ShiftTuple | Sequence[int] = DEFAULT_TUPLE,
    h_list: Sequence[float] = (1 / 10, 1 / 20, 1 / 40, 1 / 60),
    tau_law: Callable[[float], float] | None = None,
    variant: str = "peaceman_rachford",
) -> ConvergenceTable:
    """Run the solver over a decreasing h sequence and tabulate errors/rates.

    ``tau_law`` maps h to the target time step (default h**2); the actual
    tau divides t_final exactly.  Errors are measured against the exact
    solution at the final time in the max norm.  ``variant`` is used by 2D
    cases only, but one outside ``ADI_VARIANTS`` raises ``ValueError`` in
    either dimension before any level runs.  So does an ``h_list`` entry
    that is not finite and positive, naming the level, and a ``tau_law``
    result that is not finite and positive, naming h.
    """
    st = ShiftTuple.of(shifts)
    if variant not in ADI_VARIANTS:
        raise ValueError(f"variant must be one of {ADI_VARIANTS}, got {variant!r}")
    if tau_law is None:
        tau_law = lambda h: h * h
    hs = [float(h) for h in h_list]
    for i, h in enumerate(hs):
        if not (np.isfinite(h) and h > 0.0):
            raise ValueError(f"h_list[{i}] must be finite and positive, got {h!r}")
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ValueError("h_list must be strictly decreasing")
    width = DOMAIN[1] - DOMAIN[0]
    levels = []
    for h in hs:
        n_cells = round(width / h)
        if abs(n_cells * h - width) > 1e-9 * width:
            raise ValueError(f"h = {h} does not divide the domain width {width}")
        tau = tau_law(h)
        if not (np.isfinite(tau) and tau > 0.0):
            raise ValueError(f"tau_law must return a finite positive step, got {tau!r} at h = {h}")
        levels.append((n_cells, _step_count(case.t_final, tau)))
    rows: list[tuple[float, float, float, float | None]] = []
    for i, (h, (n_cells, n_steps)) in enumerate(zip(hs, levels)):
        problem = case.problem(n_cells, n_steps)
        if case.dimension == 1:
            numeric = solve_1d(problem, st)
            exact = case.exact(problem.grid.interior_nodes(), case.t_final)
        else:
            numeric = solve_2d(problem, st, variant=variant)
            exact = case.exact(
                problem.grid_x.interior_nodes()[:, None],
                problem.grid_y.interior_nodes()[None, :],
                case.t_final,
            )
        err = max_error(numeric, exact)
        rate = None if i == 0 else observed_rate(rows[-1][2], err, hs[i - 1], h)
        rows.append((h, problem.tau, err, rate))
    return ConvergenceTable(rows=rows)

"""Finite-domain WSLD operator matrices and stencil application.

On a uniform grid over (x_left, x_right) with zero extension outside the
open interval, the left-derivative approximation at interior node i is

    h**(-alpha) * sum_{k=0}^{i+m} phi_k * u(x_{i-k+m}),

a Toeplitz correlation, and the right-derivative operator is its transpose.
An operator is a read-only dense ``ndarray`` of the dimensionless stencil
entries (the right operator is its ``.T``); the h**(-alpha) scaling is
applied by :func:`apply_stencil` and by the solvers.

The design accuracy of an order-k stencil assumes the zero-extended
function stays smooth enough across the boundary; inputs that do not vanish
to high order at the interval ends converge at a reduced rate near them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import gamma

from .coefficients import CoefficientTable, ShiftTuple, stencil_coeffs, validate_order

__all__ = [
    "Grid1D",
    "UnsupportedPowerError",
    "table_for_grid",
    "assemble_left",
    "apply_stencil",
    "rl_exact_poly",
]


class UnsupportedPowerError(ValueError):
    """Raised for monomial powers whose derivative is not classical."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with ``n_cells`` cells on [x_left, x_right]."""

    x_left: float
    x_right: float
    n_cells: int

    def __post_init__(self) -> None:
        if not self.x_left < self.x_right:
            raise ValueError("need x_left < x_right")
        if self.n_cells < 2:
            raise ValueError("need at least 2 cells")

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    @property
    def n_interior(self) -> int:
        return self.n_cells - 1

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_left, self.x_right, self.n_cells + 1)

    def interior_nodes(self) -> np.ndarray:
        return self.nodes()[1:-1]


def table_for_grid(
    alpha: float, shifts: ShiftTuple | Sequence[int], grid: Grid1D
) -> CoefficientTable:
    """Stencil table long enough for every index used on ``grid``.

    Length n + 2m + 1 covers the largest index n - 1 + m reached by either
    the matrix bands or the one-sided sums.
    """
    st = ShiftTuple.of(shifts)
    return stencil_coeffs(alpha, st, grid.n_interior + 2 * st.max_shift + 1)


def assemble_left(
    alpha: float, shifts: ShiftTuple | Sequence[int], grid: Grid1D
) -> np.ndarray:
    """Dense, read-only left-derivative operator matrix for the interior nodes.

    Row i, column j holds ``phi_{i-j+m}`` (zero above the m-th
    superdiagonal), so the Toeplitz structure is guaranteed by construction.
    The right-derivative operator is the transpose.  The grid needs more
    interior nodes than the tuple's largest shift m, else ``ValueError``.
    """
    alpha = validate_order(alpha)
    table = table_for_grid(alpha, shifts, grid)
    n = grid.n_interior
    m = table.max_shift
    if n <= m:
        raise ValueError(
            f"grid has {n} interior nodes; the stencil with max shift {m} needs at least {m + 1}"
        )
    col = table.phi[m : m + n]
    row = np.zeros(n)
    row[: m + 1] = table.phi[m::-1]
    a = toeplitz(col, row)
    a.flags.writeable = False
    return a


def apply_stencil(
    side: str,
    table: CoefficientTable,
    grid: Grid1D,
    u_interior: np.ndarray,
) -> np.ndarray:
    """Apply the h**(-alpha)-scaled stencil to interior values of u.

    Boundary and exterior values are treated as zero.  Matches the dense
    matrix-vector product to round-off; this is the convolution fast path.
    """
    u_interior = np.asarray(u_interior, dtype=float)
    n = grid.n_interior
    if u_interior.shape != (n,):
        raise ValueError(f"expected {n} interior values, got shape {u_interior.shape}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    m = table.max_shift
    if table.length < n + m:
        raise ValueError("coefficient table too short for this grid")
    padded = np.zeros(grid.n_cells + 1)
    padded[1:-1] = u_interior if side == "left" else u_interior[::-1]
    # result_i = sum_k phi_k * padded[i - k + m] = conv(phi, padded)[i + m]
    full = np.convolve(table.phi, padded)
    out = full[m + 1 : m + grid.n_cells]
    if side == "right":
        out = out[::-1]
    return out * grid.h ** -table.alpha


def rl_exact_poly(
    side: str,
    alpha: float,
    powers: Sequence[int],
    coeffs: Sequence[float],
    x: float | np.ndarray,
    domain: tuple[float, float],
) -> float | np.ndarray:
    """Exact Riemann-Liouville derivative of a one-sided polynomial.

    For ``side='left'`` the polynomial is ``sum_j c_j (x - x_left)**p_j`` and
    each monomial maps to ``Gamma(p+1)/Gamma(p+1-alpha) (x-x_left)**(p-alpha)``;
    ``side='right'`` mirrors with ``(x_right - x)``.  Powers below
    ceil(alpha) are rejected because the classical formula no longer applies.
    """
    alpha = validate_order(alpha)
    x_left, x_right = domain
    powers = [int(p) for p in powers]
    coeffs = [float(c) for c in coeffs]
    if len(powers) != len(coeffs):
        raise ValueError("powers and coeffs must have equal length")
    min_power = int(np.ceil(alpha))
    for p in powers:
        if p < min_power:
            raise UnsupportedPowerError(
                f"power {p} < ceil(alpha) = {min_power} has no classical derivative"
            )
    x = np.asarray(x, dtype=float)
    if np.any(x < x_left) or np.any(x > x_right):
        raise ValueError("evaluation point outside the domain")
    if side == "left":
        s = x - x_left
    elif side == "right":
        s = x_right - x
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    total = np.zeros_like(s)
    for p, c in zip(powers, coeffs):
        total += c * gamma(p + 1) / gamma(p + 1 - alpha) * s ** (p - alpha)
    return total if total.ndim else float(total)


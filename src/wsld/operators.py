"""Finite-domain WSLD operator matrices and stencil application.

On a uniform grid over (x_left, x_right) with zero extension outside the
open interval, the left-derivative approximation at interior node i is

    h**(-alpha) * sum_{k=0}^{i+m} phi_k * u(x_{i-k+m}),

a Toeplitz correlation, and the right-derivative operator is its transpose.
An operator is a read-only ``ndarray`` of the dimensionless stencil entries,
a strided view over the 2n - 1 diagonals of the n x n Toeplitz matrix (the
right operator is its ``.T``); the h**(-alpha) scaling is applied by
:func:`apply_stencil`.  The solvers use one private two-sided operator,
``_TwoSided``: ``G = tau/(2 h^alpha) (diag(c+) A + diag(c-) A^T)`` on one
such view, which they read as a dense matrix.

The design accuracy of an order-k stencil assumes that the solution,
extended by zero, stays smooth across the boundary, as the manufactured
solutions ``x^4 (2-x)^4`` do.  Solutions of two-sided fractional problems
with smooth data generally do not: near the ends they behave like
``x^gamma``, with gamma set by alpha and the ratio of the coefficients (Jin,
Lazarov, Pasciak & Rundell, Math. Comp. 84 (2015); Ervin, Heuer & Roop,
Math. Comp. 87 (2018)).  The data is not the cause: a forcing that vanishes
to fourth order at both ends still gives max-norm orders of 0.19 to 0.93
(README "Known deviations" 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coefficients import CoefficientTable, ShiftTuple, _integer, stencil_coeffs, validate_order

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
    """Uniform grid with ``n_cells`` cells on [x_left, x_right].

    The ends must be finite and ``n_cells`` an integer >= 2 (not a bool),
    else ``ValueError`` naming the argument.
    """

    x_left: float
    x_right: float
    n_cells: int

    def __post_init__(self) -> None:
        for name in ("x_left", "x_right"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.x_left < self.x_right:
            raise ValueError("need x_left < x_right")
        if _integer(self.n_cells, "n_cells") < 2:
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
    """Read-only left-derivative operator matrix for the interior nodes.

    Row i, column j holds ``phi_{i-j+m}`` (zero above the m-th
    superdiagonal).  The array is a strided view over one buffer of the
    2n - 1 diagonals, so it takes O(n) memory, every row is contiguous and
    the Toeplitz structure holds by construction; ``np.array(a)`` gives a
    dense copy.  The right-derivative operator is the transpose.  The grid
    needs more interior nodes than the tuple's largest shift m, else
    ``ValueError``.
    """
    alpha = validate_order(alpha)
    table = table_for_grid(alpha, shifts, grid)
    n = grid.n_interior
    m = table.max_shift
    if n <= m:
        raise ValueError(
            f"grid has {n} interior nodes; the stencil with max shift {m} needs at least {m + 1}"
        )
    # diagonals[n - 1 - i + j] = phi_{i-j+m}: phi_{n-1+m}, ..., phi_0, then zeros
    diagonals = np.concatenate((table.phi[n + m - 1 :: -1], np.zeros(n - 1 - m)))
    return sliding_window_view(diagonals, n)[::-1]


def _toeplitz_pair(
    phi: np.ndarray, m: int, n: int
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Return ``u -> (A u, A^T u)`` for the n x n left operator A of stencil ``phi``.

    With u stored at offset m of a zero buffer v, ``(A u)_i`` is the linear
    convolution ``(phi * v)_{i+2m}`` and ``(A^T u)_j`` the correlation
    ``sum_k phi_k v_{k+j}``.  A power-of-two length >= len(phi) + n keeps
    both free of wrap-around, so the stencil is transformed once here and
    each call costs one ``rfft`` and two ``irfft``: O(n log n) instead of
    the O(n^2) dense products, equal to them up to round-off.
    """
    phi = phi[: n + m]  # entries past n - 1 + m never reach the output
    size = 1 << (len(phi) + n - 1).bit_length()
    kernel = np.fft.rfft(phi, size)
    kernel_conj = kernel.conj()
    buf = np.zeros(size)

    def apply(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        buf[m : m + n] = u
        spectrum = np.fft.rfft(buf)
        a_u = np.fft.irfft(kernel * spectrum, size)[2 * m : 2 * m + n]
        at_u = np.fft.irfft(kernel_conj * spectrum, size)[:n]
        return a_u, at_u

    return apply


# Rows per block of ``_TwoSided.dense``, whose scratch block of this many rows
# is the only array alive next to its result.  With one BLAS thread on a
# 2-vCPU Xeon, 16 to 256 rows all build the n = 2999 matrix in 29-35 ms.
_ROW_BLOCK = 32


@dataclass(frozen=True, eq=False)
class _TwoSided:
    """Two-sided WSLD operator ``G = scale (diag(c+) A + diag(c-) A^T)``.

    ``A`` is the :func:`assemble_left` view, so the stencil table is computed
    once per operator, and ``scale = tau / (2 h^alpha)``.  ``dense`` writes G.
    """

    a: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    scale: float

    @classmethod
    def on(cls, alpha, shifts, grid, c_plus, c_minus, tau) -> "_TwoSided":
        a = assemble_left(alpha, shifts, grid)
        scale = tau / (2.0 * grid.h**alpha)
        return cls(a, c_plus, c_minus, scale)

    def dense(self) -> np.ndarray:
        """G as a dense Fortran-order array, so LAPACK can factor ``I - G`` in place.

        It is written as the C-order rows of G^T: row j is
        ``c+ (A^T)_j + c- A_j``, and A and A^T have contiguous rows.  Each
        block of ``_ROW_BLOCK`` rows is written once as
        ``(c+_i a_ij + c-_i a_ji) * scale``.
        """
        a, n = self.a, len(self.a)
        gt = np.empty((n, n))
        part = np.empty((min(n, _ROW_BLOCK), n))
        for s in range(0, n, _ROW_BLOCK):
            rows = slice(s, s + _ROW_BLOCK)
            block = np.multiply(self.c_plus, a.T[rows], out=gt[rows])
            block += np.multiply(self.c_minus, a[rows], out=part[: len(block)])
            block *= self.scale
        return gt.T

    def stencil(self) -> tuple[np.ndarray, int]:
        """``(phi, m)`` with ``A[i, j] = phi[i - j + m]``, read off the first row
        and column of A; m is the last nonzero superdiagonal (0 if none)."""
        a = self.a
        nonzero = np.flatnonzero(a[0])
        m = int(nonzero[-1]) if len(nonzero) else 0
        return np.concatenate((a[0, m::-1], a[1:, 0])), m

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``G x`` in O(n log n) through ``_toeplitz_pair``, equal to
        ``dense() @ x`` up to round-off."""
        a_x, at_x = _toeplitz_pair(*self.stencil(), len(self.a))(x)
        return self.scale * (self.c_plus * a_x + self.c_minus * at_x)


def apply_stencil(
    side: str,
    table: CoefficientTable,
    grid: Grid1D,
    u_interior: np.ndarray,
) -> np.ndarray:
    """Apply the h**(-alpha)-scaled stencil to interior values of u.

    Boundary and exterior values are treated as zero.  Matches the dense
    matrix-vector product to round-off in O(n log n) operations, through
    an FFT of the stencil.
    """
    u_interior = np.asarray(u_interior, dtype=float)
    n = grid.n_interior
    if u_interior.shape != (n,):
        raise ValueError(f"expected {n} interior values, got shape {u_interior.shape}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if table.length < n + table.max_shift:
        raise ValueError("coefficient table too short for this grid")
    a_u, at_u = _toeplitz_pair(table.phi, table.max_shift, n)(u_interior)
    return (a_u if side == "left" else at_u) * grid.h ** -table.alpha


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
    powers = [_integer(p, f"powers[{i}]") for i, p in enumerate(powers)]
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
    if not np.all((x >= x_left) & (x <= x_right)):  # NaN fails both
        raise ValueError("evaluation point outside the domain")
    if side == "left":
        s = x - x_left
    elif side == "right":
        s = x_right - x
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    total = np.zeros_like(s)
    for p, c in zip(powers, coeffs):
        total += c * math.gamma(p + 1) / math.gamma(p + 1 - alpha) * s ** (p - alpha)
    return total if total.ndim else float(total)


"""Numerical stability certification for WSLD operator matrices.

An operator matrix is safe for time stepping when every eigenvalue has a
negative real part.  Two complementary checks are combined:

* the generating function of the symmetric part is scanned for sign on a
  dense grid over [0, pi] (its range bounds the spectrum of the symmetric
  Toeplitz part for every matrix size, by the Grenander-Szegoe theorem);
* the largest eigenvalue of H = (A + A^T)/2 is computed at a concrete size,
  which bounds all real parts of eigenvalues of A from above.

Both checks are numerical evidence on grids, not symbolic proofs, and the
report never claims more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import eigvalsh

from .coefficients import ShiftTuple, branch_weights, stencil_coeffs, validate_order
from .operators import Grid1D, assemble_left

__all__ = [
    "ROUNDOFF_ZERO",
    "CERTIFIED_TUPLES",
    "quadratic_symbol_phase",
    "generating_function",
    "generating_function_series",
    "SpectralReport",
    "scan_nonpositivity",
    "max_real_part_bound",
    "certify",
]

# Scan values in (0, ROUNDOFF_ZERO] are treated as round-off zeros.
ROUNDOFF_ZERO = 1e-12

# Fourth-order tuples whose operators are negative definite for all orders
# in (1, 2) -- except (1,2,1,-1,1,-1,1,-2), whose combination weights
# degenerate at alpha = 1.5 exactly (see weights_order4).
CERTIFIED_TUPLES = (
    ShiftTuple((1, 2, 1, 0, 1, 2, 1, -2)),
    ShiftTuple((1, 2, 1, 0, 1, -1, 1, -2)),
    ShiftTuple((1, 2, 1, -1, 1, 2, 1, -2)),
    ShiftTuple((1, 2, 1, -1, 1, -1, 1, -2)),
    ShiftTuple((1, 0, 1, -1, 1, 2, 1, -2)),
    ShiftTuple((1, 0, 1, -2, 1, 2, 1, -2)),
    ShiftTuple((1, -1, 1, -2, 1, 2, 1, -2)),
)


def quadratic_symbol_phase(x: float | np.ndarray) -> float | np.ndarray:
    """Phase angle of the quadratic factor (3 - exp(ix))/2 of the symbol.

    Equals ``2*arctan(2*sin(x/2) / (cos(x/2) + sqrt(1 + 3*sin(x/2)**2)))``
    and runs monotonically from 0 at x = 0 to pi/2 at x = pi.  Defined on
    [0, pi] only.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > np.pi):
        raise ValueError("argument must lie in [0, pi]")
    s = np.sin(x / 2)
    out = 2.0 * np.arctan(2.0 * s / (np.cos(x / 2) + np.sqrt(1.0 + 3.0 * s * s)))
    return out if out.ndim else float(out)


def generating_function(
    shifts: ShiftTuple | Sequence[int], alpha: float, x: float | np.ndarray
) -> float | np.ndarray:
    """Generating function of the symmetric part of the operator matrix.

    Each shifted stencil contributes
    ``(2 sin(x/2))**alpha (1 + 3 sin(x/2)**2)**(alpha/2) cos(phase - t*x)``
    with ``phase = alpha*(x - pi/2 - theta(x))``; the weighted branch sum
    extends the closed form to every shift tuple.  Evaluated on [0, pi]; the
    function is even and 2*pi-periodic.
    """
    alpha = validate_order(alpha)
    st = ShiftTuple.of(shifts)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > np.pi):
        raise ValueError("x must lie in [0, pi]")
    s = np.sin(x / 2)
    prefactor = (2.0 * s) ** alpha * (1.0 + 3.0 * s * s) ** (alpha / 2)
    phase = alpha * (x - np.pi / 2 - quadratic_symbol_phase(x))
    total = np.zeros_like(x)
    for w, t in branch_weights(alpha, st):
        total += w * np.cos(phase - t * x)
    out = prefactor * total
    return out if out.ndim else float(out)


def generating_function_series(
    shifts: ShiftTuple | Sequence[int],
    alpha: float,
    x: float | np.ndarray,
    n_terms: int = 100_000,
) -> float | np.ndarray:
    """Truncated-series route: real part of ``sum_k phi_k exp(i(k-m)x)``.

    Independent of the trigonometric closed form; used to cross-check it.
    The neglected tail is O(n_terms**(-alpha)), so agreement is limited to
    roughly that size near x = 0.
    """
    alpha = validate_order(alpha)
    st = ShiftTuple.of(shifts)
    table = stencil_coeffs(alpha, st, n_terms)
    x = np.asarray(x, dtype=float)
    k = np.arange(table.length) - st.max_shift
    out = np.cos(np.multiply.outer(x, k)) @ table.phi
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class SpectralReport:
    """Outcome of a stability scan for one shift tuple.

    ``alpha`` is the scanned order attaining the largest generating-function
    value.  ``lambda_max_sym`` is None until a matrix eigenvalue check has
    run; the verdict is ``certified_negative`` only when both the scan and
    the eigenvalue bound are negative.
    """

    shifts: ShiftTuple
    alpha: float
    f_max: float
    lambda_max_sym: float | None
    verdict: str

    def __post_init__(self) -> None:
        if self.verdict == "certified_negative":
            if not (self.f_max <= ROUNDOFF_ZERO and (self.lambda_max_sym or 0.0) < 0.0):
                raise ValueError("certified_negative requires both checks negative")


def scan_nonpositivity(
    shifts: ShiftTuple | Sequence[int],
    alphas: Sequence[float],
    x_grid: np.ndarray | None = None,
) -> SpectralReport:
    """Scan the generating function over alphas x grid and record its max.

    Returns a partial report (no eigenvalue bound, verdict ``indeterminate``
    unless the scan is already positive beyond round-off).
    """
    st = ShiftTuple.of(shifts)
    alphas = [validate_order(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one alpha")
    if x_grid is None:
        x_grid = np.linspace(0.0, np.pi, 2001)
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.size == 0:
        raise ValueError("need a nonempty x grid")
    f_max = -np.inf
    alpha_at_max = alphas[0]
    for a in alphas:
        f = np.max(generating_function(st, a, x_grid))
        if f > f_max:
            f_max = f
            alpha_at_max = a
    verdict = "positive" if f_max > ROUNDOFF_ZERO else "indeterminate"
    return SpectralReport(
        shifts=st,
        alpha=alpha_at_max,
        f_max=float(f_max),
        lambda_max_sym=None,
        verdict=verdict,
    )


def max_real_part_bound(matrix: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric part (A + A^T)/2.

    Upper bound for the real part of every eigenvalue of A; computed with a
    dense symmetric eigensolver asked for that one eigenvalue only.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    n = a.shape[0]
    h = (a + a.T) / 2.0
    return float(eigvalsh(h, subset_by_index=[n - 1, n - 1])[0])


def certify(
    shifts: ShiftTuple | Sequence[int],
    alphas: Sequence[float] = (1.1, 1.5, 1.9),
    n_interior: int = 64,
    x_points: int = 2001,
) -> SpectralReport:
    """Full stability check: generating-function scan plus eigenvalue bound.

    The eigenvalue bound is the worst (largest) ``lambda_max`` of the
    symmetric part over the requested alphas at matrix size ``n_interior``.

    Raises ``DegenerateTupleError`` instead of returning a verdict when a
    requested alpha leaves the tuple's order-4 weights undefined
    (``a*bb == ab*b`` in ``weights_order4``).  Among ``CERTIFIED_TUPLES``
    this happens once: ``(1,2,1,-1,1,-1,1,-2)`` at alpha = 1.5, where the
    denominator ``72 - 48*alpha`` vanishes.  ``x_points`` below 2 raise
    ``ValueError``: one point scans only x = 0, where the symbol is 0.
    """
    if x_points < 2:
        raise ValueError(f"x_points must be at least 2, got {x_points}")
    st = ShiftTuple.of(shifts)
    x_grid = np.linspace(0.0, np.pi, x_points)
    partial = scan_nonpositivity(st, alphas, x_grid)
    grid = Grid1D(0.0, 1.0, n_interior + 1)
    lam = max(
        max_real_part_bound(assemble_left(a, st, grid)) for a in alphas
    )
    scan_ok = partial.f_max <= ROUNDOFF_ZERO
    if scan_ok and lam < 0.0:
        verdict = "certified_negative"
    elif lam > 0.0:
        verdict = "positive"
    else:
        verdict = "indeterminate"
    return SpectralReport(
        shifts=st,
        alpha=partial.alpha,
        f_max=partial.f_max,
        lambda_max_sym=float(lam),
        verdict=verdict,
    )

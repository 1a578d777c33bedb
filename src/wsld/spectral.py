"""Numerical stability certification for WSLD operator matrices.

An operator matrix is safe for time stepping when every eigenvalue has a
negative real part.  Two complementary checks are combined:

* the generating function of the symmetric part is scanned for sign on a
  dense grid over [0, pi] (its range bounds the spectrum of the symmetric
  Toeplitz part for every matrix size, by the Grenander-Szegoe theorem);
* the largest eigenvalue of H = (A + A^T)/2 is computed at a concrete size,
  which bounds all real parts of eigenvalues of A from above.  For a
  Toeplitz A, H is symmetric Toeplitz and so centrosymmetric; its spectrum
  is then that of two half-size symmetric blocks together (Cantoni &
  Butler, Linear Algebra Appl. 13 (1976) 275-288), Toeplitz plus and minus
  Hankel in ``t_k = (a_k0 + a_0k)/2``, which are built from those O(n)
  numbers without forming H.  The even block is solved, and the odd block
  is only screened by a Cholesky factorization of ``top * I - odd``; it is
  solved too only when that fails.  Other matrices form H and get one
  dense solve.

Both checks are numerical evidence on grids, not symbolic proofs, and the
report never claims more.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import eigvalsh
from scipy.linalg.lapack import dpotrf

from .coefficients import ShiftTuple, _integer, branch_weights, stencil_coeffs, validate_order
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


def _half_angle(x: float | np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``x`` as a float array, ``sin(x/2)`` and ``1 + 3 sin(x/2)**2``; an ``x``
    outside [0, pi] raises ``ValueError`` naming it ``name``."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= np.pi)):  # NaN fails both
        raise ValueError(f"{name} must lie in [0, pi]")
    s = np.sin(x / 2)
    return x, s, 1.0 + 3.0 * s * s


def _theta(x: np.ndarray, s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``quadratic_symbol_phase`` from the output of ``_half_angle``."""
    return 2.0 * np.arctan(2.0 * s / (np.cos(x / 2) + np.sqrt(q)))


def quadratic_symbol_phase(x: float | np.ndarray) -> float | np.ndarray:
    """Phase angle of the quadratic factor (3 - exp(ix))/2 of the symbol.

    Equals ``2*arctan(2*sin(x/2) / (cos(x/2) + sqrt(1 + 3*sin(x/2)**2)))``
    and runs monotonically from 0 at x = 0 to pi/2 at x = pi.  Defined on
    [0, pi] only.
    """
    out = _theta(*_half_angle(x, "argument"))
    return out if out.ndim else float(out)


def generating_function(
    shifts: ShiftTuple | Sequence[int], alpha: float, x: float | np.ndarray
) -> float | np.ndarray:
    """Generating function of the symmetric part of the operator matrix.

    Each shifted stencil contributes
    ``(2 sin(x/2))**alpha (1 + 3 sin(x/2)**2)**(alpha/2) cos(phase - t*x)``
    with ``phase = alpha*(x - pi/2 - theta(x))``; the weighted branch sum
    extends the closed form to every shift tuple.  Evaluated on [0, pi]; the
    function is even and 2*pi-periodic.  ``sin(x/2)``, ``1 + 3 sin(x/2)**2``
    and the range check are computed once, for the prefactor and theta.
    """
    alpha = validate_order(alpha)
    st = ShiftTuple.of(shifts)
    x, s, q = _half_angle(x, "x")
    prefactor = (2.0 * s) ** alpha * q ** (alpha / 2)
    phase = alpha * (x - np.pi / 2 - _theta(x, s, q))
    total = np.zeros_like(x)
    waves = {}  # one cosine per distinct shift; branches often repeat one
    for w, t in branch_weights(alpha, st):
        if t not in waves:
            waves[t] = np.cos(phase - t * x)
        total += w * waves[t]
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
    table = stencil_coeffs(alpha, st, _integer(n_terms, "n_terms"))
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
    unless the scan is already positive beyond round-off).  An empty or
    non-finite ``x_grid`` raises ``ValueError`` naming it.
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
    if not np.all(np.isfinite(x_grid)):
        raise ValueError("x_grid must be finite")
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


def _toeplitz_blocks(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The half-size blocks whose spectra together make up that of the
    symmetric Toeplitz ``H_ij = t_|i-j|`` of order n >= 2.

    H is centrosymmetric (``J H J = H``).  With ``k = n // 2``, ``H[:k, :k]``
    is the Toeplitz ``T_ij = t_|i-j|`` and ``H12 J`` (``H[i, n-1-j]``) the
    Hankel ``K_ij = t_(n-1-i-j)``, both strided views of O(n) data, so H
    itself is never formed.  The vectors ``[x; Jx]`` span an invariant
    subspace on which H acts as ``T + K`` and ``[x; -Jx]`` one on which it
    acts as ``T - K``.  For odd n the even block is bordered by the middle
    row and column, ``H[:k, k]`` scaled by sqrt(2) and ``H[k, k] = t_0``.
    """
    n = len(t)
    k = n // 2
    toeplitz = sliding_window_view(np.concatenate((t[k - 1 : 0 : -1], t[:k])), k)[::-1]
    hankel = sliding_window_view(t[::-1], k)[:k]
    even = toeplitz + hankel
    odd = toeplitz - hankel
    if n % 2:
        border = np.sqrt(2.0) * t[k:0:-1, None]
        even = np.block([[even, border], [border.T, np.full((1, 1), t[0])]])
    return even, odd


def _top_eigenvalue(h: np.ndarray) -> float:
    return float(eigvalsh(h, subset_by_index=[len(h) - 1, len(h) - 1])[0])


def _below(block: np.ndarray, top: float) -> bool:
    """True when ``top * I - block`` has a Cholesky factor.

    Then ``top * I - block`` is positive definite, and every eigenvalue of
    the symmetric ``block`` lies below ``top``.  Only the diagonal
    ``top - block_ii`` can overflow, and an infinite pivot would pass the
    factorization unchecked, so such a block is never screened as below.
    """
    scratch = np.negative(block, order="F")
    with np.errstate(over="ignore"):
        scratch.flat[:: len(block) + 1] += top
    if not np.isfinite(scratch.diagonal()).all():
        return False
    return dpotrf(scratch, clean=0, overwrite_a=1)[1] == 0


def max_real_part_bound(matrix: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric part H = (A + A^T)/2.

    Upper bound for the real part of every eigenvalue of A; computed with a
    dense symmetric eigensolver asked for one eigenvalue only.

    A Toeplitz A of order n >= 2, found by comparing ``a[1:, 1:]`` with
    ``a[:-1, :-1]`` (so a NaN never matches), needs no n x n work: its
    first column and row give ``t_k = (a_k0 + a_0k)/2``, the same floats as
    the entries of H, and H is split into two half-size symmetric blocks
    whose spectra together make up its own (Cantoni & Butler, Linear
    Algebra Appl. 13 (1976) 275-288), formed from views of t.  The even
    block (with the middle node for odd n) is solved, giving ``top``, and
    the odd block is screened: when ``top * I - odd`` has a Cholesky
    factor, every odd eigenvalue lies below ``top`` and ``top`` is
    returned.  Otherwise the odd block is solved as well and the larger top
    eigenvalue returned.  An exact tie fails the screen, so it is solved; a
    screen that passes bounds the odd top by ``top`` up to the round-off of
    the factorization, which is of the order of the eigensolver's own
    error.  The WSLD operators have their top eigenvalue in the even block,
    so they take one half-size solve and one factorization.

    Every other matrix, a 1 x 1 one included, forms H and gets one dense
    n x n solve.  A 0 x 0, non-square or non-finite matrix raises
    ``ValueError`` before any solve.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    if a.size == 0:
        raise ValueError("need a nonempty matrix")
    if len(a) > 1 and np.array_equal(a[1:, 1:], a[:-1, :-1]):
        # Toeplitz: every entry sits in the first column or row
        if not (np.isfinite(a[:, 0]).all() and np.isfinite(a[0]).all()):
            raise ValueError("matrix must be finite")
        t = a[:, 0] + a[0, :]
        t *= 0.5
        even, odd = _toeplitz_blocks(t)
        top = _top_eigenvalue(even)
        if not _below(odd, top):
            top = max(top, _top_eigenvalue(odd))
        return top
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    h = a + a.T
    h *= 0.5
    return _top_eigenvalue(h)


def _verdict(f_max: float, lam: float) -> str:
    """``certified_negative`` when the scan maximum ``f_max`` is at most
    ``ROUNDOFF_ZERO`` and the eigenvalue bound ``lam`` negative, ``positive``
    when ``lam`` is positive, otherwise ``indeterminate``."""
    if f_max <= ROUNDOFF_ZERO and lam < 0.0:
        return "certified_negative"
    return "positive" if lam > 0.0 else "indeterminate"


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
    denominator ``72 - 48*alpha`` vanishes.  An ``x_points`` that is not an
    integer >= 2 raises ``ValueError``: one point scans only x = 0, where
    the symbol is 0.  So does an ``n_interior`` that is not an integer >= 1.
    A bool is not an integer here.
    """
    if _integer(x_points, "x_points") < 2:
        raise ValueError(f"x_points must be at least 2, got {x_points}")
    if isinstance(n_interior, bool) or not isinstance(n_interior, Integral) or n_interior < 1:
        raise ValueError(f"n_interior must be an integer >= 1, got {n_interior!r}")
    st = ShiftTuple.of(shifts)
    x_grid = np.linspace(0.0, np.pi, x_points)
    partial = scan_nonpositivity(st, alphas, x_grid)
    grid = Grid1D(0.0, 1.0, n_interior + 1)
    lam = max(
        max_real_part_bound(assemble_left(a, st, grid)) for a in alphas
    )
    return SpectralReport(
        shifts=st,
        alpha=partial.alpha,
        f_max=partial.f_max,
        lambda_max_sym=float(lam),
        verdict=_verdict(partial.f_max, lam),
    )

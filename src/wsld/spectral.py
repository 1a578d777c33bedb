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
  dense solve.  A solve of a negative definite block is inverse iteration
  on the Cholesky factor of ``-block``; any other block gets a dense
  symmetric eigensolver.

A ``lambda_max_sym`` within the round-off slack of 0, which grows with the
branch weights near a degenerate order, has no trusted sign and is reported
``indeterminate``.  Both checks are numerical evidence on grids, not
symbolic proofs, and the report never claims more.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import eigvalsh
from scipy.linalg.lapack import dpotrf, dpotrs

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

# Inverse iteration in _top_eigenvalue: at most this many solves, stopped
# when the error bound left is below this fraction of mu.
_INVERSE_STEPS = 64
_INVERSE_TOL = 1e-14

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
    the eigenvalue bound are negative, the bound by more than its round-off
    slack.
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
    """Largest eigenvalue of the symmetric ``h``, read from its lower triangle.

    When ``-h`` has a Cholesky factor, ``h`` is negative definite and its
    top eigenvalue is the one nearest 0, so inverse iteration with that
    factor finds it (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998,
    ch. 4): from a fixed Gaussian start (seed 0; a constant start is
    orthogonal to every J-antisymmetric eigenvector), each step solves
    ``y = (-h)^-1 x`` for the unit ``x`` and takes ``mu = x . y``, which
    rises to ``1 / |top|`` with changes shrinking by a ratio r near
    ``(top / second)^2``.  Once the last change times ``r / (1 - r)``, the
    geometric bound on the error left, is below ``_INVERSE_TOL * mu``,
    ``-1 / mu`` is returned.  A near tie keeps r near 1, so the bound never
    passes; a tie closer than the tolerance's square root can pass it
    early, but the value returned then lies, up to the tolerance, between
    the two tied eigenvalues.  Every other case falls back to one dense
    ``eigvalsh`` call asked for the top eigenvalue only: no Cholesky factor
    (the top is >= 0), ``_INVERSE_STEPS`` steps without passing, or a
    non-finite ``mu``.  The WSLD blocks, whose top eigenvalues sit near 0
    with ``top / second`` at most 0.25, pass in 9 to 16 steps at n = 400.
    """
    n = len(h)
    # h is symmetric, so the transpose of -h is -h in Fortran order; dpotrf
    # reads its upper triangle, which is h's lower one
    factor, info = dpotrf(np.negative(h).T, clean=0, overwrite_a=1)
    if info == 0:
        x = np.random.default_rng(0).standard_normal(n)
        x /= np.linalg.norm(x)
        mu = change = 0.0
        with np.errstate(all="ignore"):  # a non-finite mu falls back below
            for step in range(_INVERSE_STEPS):
                y = dpotrs(factor, x)[0]
                new = x @ y
                last, change, mu = change, abs(new - mu), new
                # change * r / (1 - r) <= tol * mu with r = change / last
                if step > 1 and change * change <= _INVERSE_TOL * mu * (last - change):
                    top = -1.0 / mu
                    if np.isfinite(top) and top < 0.0:
                        return float(top)
                    break
                x = y / np.sqrt(y @ y)
    return float(eigvalsh(h, subset_by_index=[n - 1, n - 1])[0])


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

    Upper bound for the real part of every eigenvalue of A.  Every top
    eigenvalue goes through ``_top_eigenvalue``: a block whose negation has
    a Cholesky factor is solved by inverse iteration on that factor, any
    other by a dense symmetric eigensolver asked for one eigenvalue only.

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
    so they take one half-size solve and one factorization; the even block
    is negative definite, so that solve is one more Cholesky factorization
    and 9 to 16 triangular solve pairs at n = 400, no dense eigensolver.

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


def _roundoff_slack(shifts: ShiftTuple, alphas: Sequence[float]) -> float:
    """How far round-off can move ``lambda_max_sym``: the largest over
    ``alphas`` of ``c * eps * sum|w| * Q`` with ``c = 8``.

    ``sum|w|`` is the sum of the absolute branch weights, which grows
    without bound near a degenerate order, and
    ``Q = (3/2)^a * 2a * (1 + a/3 + (a-1)/9)`` bounds ``sum_k |q_k|``: the
    Gruenwald weights have ``sum |g_k| = 2a``, and the damped ones
    ``sum 3^-k |g_k| <= 1 + a/3 + (a-1)/9``, since ``g_k > 0`` for k >= 2
    and those sum to ``a - 1``.

    The constant: each stencil entry is a floating-point sum of at most
    eight rounded products ``w * q_j``, one per branch, so its error is at
    most about ``8 eps`` times the sum of their absolute values (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.1), and
    summed over all entries at most ``8 eps sum|w| Q``.  That sum bounds
    the 2-norm of the error in the Toeplitz ``(A + A^T)/2``, and by Weyl's
    inequality the error in its top eigenvalue.  The rest of the round-off,
    in ``q``, in the weights' numerators and in the eigensolver (whose
    backward error is a multiple of ``eps ||H||``, and
    ``||H|| <= sum|w| Q``), has the same form; the weights' common
    denominator only scales the operator.  Against 50-digit eigenvalues at
    n = 32 and 64 the whole error stayed below 0.48 of ``eps sum|w| Q``
    (0.73 with ``eigvalsh`` for every solve) for the ``CERTIFIED_TUPLES``
    at six orders in (1, 2) and for ``(1,2,1,-1,1,-1,1,-2)`` within 1e-13
    of its degenerate order 1.5.
    """
    eps = np.finfo(float).eps
    return max(
        8 * eps * sum(abs(w) for w, _ in branch_weights(a, shifts))
        * 1.5**a * 2 * a * (1 + a / 3 + (a - 1) / 9)
        for a in alphas
    )


def _verdict(f_max: float, lam: float, slack: float) -> str:
    """``certified_negative`` when the scan maximum ``f_max`` is at most
    ``ROUNDOFF_ZERO`` and the eigenvalue bound ``lam`` below ``-slack``,
    ``positive`` when ``lam`` is above ``slack``, otherwise ``indeterminate``:
    a ``lam`` within the round-off ``slack`` of 0 has no trusted sign."""
    if f_max <= ROUNDOFF_ZERO and lam < -slack:
        return "certified_negative"
    return "positive" if lam > slack else "indeterminate"


def certify(
    shifts: ShiftTuple | Sequence[int],
    alphas: Sequence[float] = (1.1, 1.5, 1.9),
    n_interior: int = 64,
    x_points: int = 2001,
) -> SpectralReport:
    """Full stability check: generating-function scan plus eigenvalue bound.

    The eigenvalue bound is the worst (largest) ``lambda_max`` of the
    symmetric part over the requested alphas at matrix size ``n_interior``.
    Its sign counts only outside the worst round-off slack over the alphas
    (``_roundoff_slack``): within it the verdict is ``indeterminate``, as
    for ``(1,2,1,-1,1,-1,1,-2)`` at alpha = 1.5 + 1e-13, whose weights of
    size 1e12 leave ``lambda_max_sym`` pure cancellation error.

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
        verdict=_verdict(partial.f_max, lam, _roundoff_slack(st, alphas)),
    )

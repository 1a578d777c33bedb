"""Coefficient sequences and weights for weighted-and-shifted Lubich
difference (WSLD) operators.

The second-order Lubich generating polynomial (3/2 - 2*z + z**2/2)**alpha
factors as (3/2)**alpha * (1-z)**alpha * (1-z/3)**alpha, so its power-series
coefficients ``q_k`` are a damped self-convolution of the Gruenwald
coefficients ``g_k`` of (1-z)**alpha.  Shifting the resulting stencil by an
integer and combining several shifts with algebraically determined weights
cancels successive terms of the truncation error, yielding approximations of
the left/right Riemann-Liouville derivative of order 1 through 4.

Everything in this module is scalar/sequence arithmetic; grids and matrices
live in :mod:`wsld.operators`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "DegenerateTupleError",
    "validate_order",
    "ShiftTuple",
    "DEFAULT_TUPLE",
    "grunwald_coeffs",
    "lubich_coeffs",
    "weights_order2",
    "weights_order3",
    "weights_order4",
    "branch_weights",
    "stencil_coeffs",
    "CoefficientTable",
]


class DegenerateTupleError(ValueError):
    """Raised when a shift tuple makes the combination weights undefined."""


def _integer(value, name: str) -> int:
    """``value`` as an int, or ``ValueError`` naming ``name`` when it is not an
    integer: Python and numpy ints pass, while a bool, a float or a string
    is rejected rather than truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def validate_order(alpha: float) -> float:
    """Validate a fractional derivative order, returning it as a float.

    Only orders strictly between 1 and 2 are supported.
    """
    alpha = float(alpha)
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"fractional order must lie in (1, 2), got {alpha}")
    return alpha


# Length -> combination depth.  A single shift is the plain (shifted) Lubich
# stencil; 2/4/8 shifts are the weighted combinations of orders 2/3/4.
_ORDER_BY_LENGTH = {1: 1, 2: 2, 4: 3, 8: 4}


@dataclass(frozen=True)
class ShiftTuple:
    """Integer shifts selecting which shifted stencils are combined.

    The approximation order is implied by the number of shifts: 1 shift for
    the basic operator, (p, q) for order 2, (p, q, r, s) for order 3 and
    (p, q, r, s, pb, qb, rb, sb) for order 4.  Pairs inside each branch must
    be non-degenerate (p != q, and r*s != p*q within a quadruple); the one
    alpha-dependent degeneracy of order 4 is checked in
    :func:`weights_order4`.
    """

    shifts: tuple[int, ...]

    def __post_init__(self) -> None:
        shifts = tuple(_integer(s, f"shifts[{i}]") for i, s in enumerate(self.shifts))
        object.__setattr__(self, "shifts", shifts)
        if len(shifts) not in _ORDER_BY_LENGTH:
            raise ValueError(
                f"a shift tuple has 1, 2, 4 or 8 entries, got {len(shifts)}"
            )
        for a, b in zip(shifts[0::2], shifts[1::2]):
            if a == b:
                raise DegenerateTupleError(f"degenerate pair ({a}, {b})")
        for p, q, r, s in zip(shifts[0::4], shifts[1::4], shifts[2::4], shifts[3::4]):
            if r * s == p * q:
                raise DegenerateTupleError(
                    f"degenerate quadruple ({p}, {q}, {r}, {s}): r*s == p*q"
                )

    @property
    def order(self) -> int:
        return _ORDER_BY_LENGTH[len(self.shifts)]

    @property
    def max_shift(self) -> int:
        """Largest absolute shift; stencils are index-aligned against it."""
        return max(abs(s) for s in self.shifts)

    @classmethod
    def of(cls, shifts: "ShiftTuple | Iterable[int]") -> "ShiftTuple":
        if isinstance(shifts, cls):
            return shifts
        return cls(tuple(shifts))

    def __iter__(self):
        return iter(self.shifts)

    def __str__(self) -> str:
        return "(" + ",".join(str(s) for s in self.shifts) + ")"


DEFAULT_TUPLE = ShiftTuple((1, 2, 1, 0, 1, 2, 1, -2))

# Largest number of convolution terms lubich_coeffs forms at once (8 MiB).
_TERMS_PER_CHUNK = 1 << 20


def grunwald_coeffs(alpha: float, k_max: int) -> np.ndarray:
    """Coefficients ``g_k`` of the power series of (1-z)**alpha.

    Computed by the stable one-term recursion
    ``g_0 = 1``, ``g_k = (1 - (alpha+1)/k) * g_{k-1}``.

    Parameters
    ----------
    alpha:
        Fractional order in (1, 2).
    k_max:
        Last index; the returned array has ``k_max + 1`` entries.
    """
    alpha = validate_order(alpha)
    if _integer(k_max, "k_max") < 0:
        raise ValueError("k_max must be nonnegative")
    g = np.ones(k_max + 1)
    if k_max >= 1:
        k = np.arange(1, k_max + 1)
        g[1:] = np.cumprod(1.0 - (alpha + 1.0) / k)
    return g


def lubich_coeffs(alpha: float, k_max: int) -> np.ndarray:
    """Coefficients ``q_k`` of the second-order Lubich generating function.

    ``q_k = (3/2)**alpha * sum_m 3**(-m) g_m g_{k-m}``, evaluated as a finite
    convolution of the Gruenwald sequence with its 3**(-m)-damped copy.  The
    damping factor 3**(-m) falls below double-precision resolution near
    m = 33, so the convolution is truncated at m = min(k_max, 60), past that
    point with margin, and the total cost is O(k_max).  The terms
    ``3**(-m) g_m g_{k-m}`` are formed for a chunk of k at once and summed
    in ascending m, the order of the term-by-term loop, so the result does
    not depend on the chunking.

    The sequence starts at ``q_0 = (3/2)**alpha`` and sums to zero over
    k = 0..infinity; partial sums decay like ``k_max**(-alpha)``.
    """
    alpha = validate_order(alpha)
    g = grunwald_coeffs(alpha, k_max)  # checks k_max
    taps = min(k_max, 60) + 1
    damped = np.array([3.0**-m for m in range(taps)]) * g[:taps]
    n = k_max + 1
    # shifted[m, k] = g_{k-m}, with zeros for k < m
    shifted = sliding_window_view(np.concatenate((np.zeros(taps - 1), g)), n)[::-1]
    # Columns in chunks of at most _TERMS_PER_CHUNK terms, so the product
    # stays small at any k_max, and of near-equal widths, so no chunk is
    # left with a single column, whose sum numpy would reorder.
    chunks = -(-n * taps // _TERMS_PER_CHUNK)
    terms = np.empty((taps, -(-n // chunks)))
    q = np.empty(n)
    for i in range(chunks):
        lo, hi = i * n // chunks, (i + 1) * n // chunks
        out = terms[:, : hi - lo]
        np.multiply(damped[:, None], shifted[:, lo:hi], out=out)
        # the rows of a C-order array are added one after another, m ascending
        np.add.reduce(out, axis=0, out=q[lo:hi])
    q *= 1.5**alpha
    return q


def weights_order2(p: int, q: int) -> tuple[float, float]:
    """Weights (w_p, w_q) combining shifts p and q into a 2nd-order operator.

    ``w_p = q/(q-p)``, ``w_q = p/(p-q)``; they always sum to one.
    """
    if p == q:
        raise DegenerateTupleError(f"order-2 weights need p != q, got p = q = {p}")
    return q / (q - p), p / (p - q)


def weights_order3(alpha: float, p: int, q: int, r: int, s: int) -> tuple[float, float]:
    """Weights combining two 2nd-order branches into a 3rd-order operator.

    ``w_pq = (3rs + 2*alpha) / (3(rs - pq))`` and symmetrically for w_rs;
    requires ``rs != pq``.
    """
    alpha = validate_order(alpha)
    if r * s == p * q:
        raise DegenerateTupleError(
            f"order-3 weights need r*s != p*q, got ({p}, {q}, {r}, {s})"
        )
    w_pq = (3 * r * s + 2 * alpha) / (3 * (r * s - p * q))
    w_rs = (3 * p * q + 2 * alpha) / (3 * (p * q - r * s))
    return w_pq, w_rs


def _third_order_residual(alpha: float, p: int, q: int, r: int, s: int) -> tuple[float, float]:
    """(a, b) of the leading truncation term of a 3rd-order branch."""
    a = r * s - p * q
    b = (
        6 * p * q * r * s * (r + s - p - q)
        + 4 * alpha * (r * s * (r + s) - p * q * (p + q))
        + 9 * alpha * (r * s - p * q)
    )
    return float(a), float(b)


def weights_order4(alpha: float, shifts: ShiftTuple | Sequence[int]) -> tuple[float, float]:
    """Weights combining two 3rd-order branches into a 4th-order operator.

    With (a, b) the leading-residual data of the first quadruple and
    (ab, bb) of the second, the weights are ``a*bb / (a*bb - ab*b)`` and
    ``ab*b / (ab*b - a*bb)``.  The combination degenerates when
    ``a*bb == ab*b``, which for some tuples happens at isolated values of
    alpha; this is rejected rather than returning infinities.
    """
    alpha = validate_order(alpha)
    st = ShiftTuple.of(shifts)
    if st.order != 4:
        raise ValueError(f"need an 8-entry shift tuple, got {st}")
    a, b = _third_order_residual(alpha, *st.shifts[:4])
    ab, bb = _third_order_residual(alpha, *st.shifts[4:])
    den = a * bb - ab * b
    if den == 0.0:
        raise DegenerateTupleError(
            f"tuple {st} is degenerate at alpha = {alpha}: a*bb == ab*b"
        )
    return a * bb / den, -ab * b / den


def branch_weights(alpha: float, shifts: ShiftTuple | Sequence[int]) -> list[tuple[float, int]]:
    """Flatten a shift tuple into ``(weight, shift)`` stencil branches.

    Each branch contributes ``weight * q_{k + shift - m}`` to the combined
    stencil; the weights multiply down the combination hierarchy and sum to
    one at every order.
    """
    alpha = validate_order(alpha)
    st = ShiftTuple.of(shifts)
    return list(_branch_weights(alpha, st.shifts))


@functools.lru_cache(maxsize=256)
def _branch_weights(alpha: float, shifts: tuple[int, ...]) -> tuple[tuple[float, int], ...]:
    """The branches of ``branch_weights``, cached: ``certify`` needs those of
    one (tuple, alpha) for the symbol, the stencil and the round-off slack.
    A degenerate tuple raises each time, since errors are not cached."""
    if len(shifts) == 1:
        return ((1.0, shifts[0]),)
    if len(shifts) == 2:
        w1, w2 = weights_order2(*shifts)
    elif len(shifts) == 4:
        w1, w2 = weights_order3(alpha, *shifts)
    else:
        w1, w2 = weights_order4(alpha, shifts)
    half = len(shifts) // 2
    return tuple((w1 * w, t) for w, t in _branch_weights(alpha, shifts[:half])) + tuple(
        (w2 * w, t) for w, t in _branch_weights(alpha, shifts[half:])
    )


@dataclass(frozen=True)
class CoefficientTable:
    """Stencil coefficients ``phi_k`` for one (alpha, shift tuple) pair.

    ``phi_k = sum_branches w * q_{k + shift - m}`` with ``q_{j<0} = 0`` and
    m the largest absolute shift.
    """

    alpha: float
    shifts: ShiftTuple
    phi: np.ndarray

    def __post_init__(self) -> None:
        self.phi.flags.writeable = False

    @property
    def length(self) -> int:
        return len(self.phi)

    @property
    def max_shift(self) -> int:
        return self.shifts.max_shift


def stencil_coeffs(
    alpha: float, shifts: ShiftTuple | Sequence[int], k_max: int
) -> CoefficientTable:
    """Assemble the combined, shift-aligned stencil ``phi_0 .. phi_{k_max}``.

    Indices ``k + shift - m`` below zero use the q_{j<0} = 0 convention, so
    callers never need to pad.
    """
    alpha = validate_order(alpha)
    st = ShiftTuple.of(shifts)
    q = lubich_coeffs(alpha, k_max)  # checks k_max
    m = st.max_shift
    phi = np.zeros(k_max + 1)
    for w, t in branch_weights(alpha, st):
        off = t - m  # q-index offset; off <= 0 always
        k0 = -off
        phi[k0:] += w * q[: max(k_max + 1 + off, 0)]  # empty when k0 > k_max
    return CoefficientTable(alpha=alpha, shifts=st, phi=phi)

"""Crank-Nicolson (1D) and ADI (2D) time stepping for variable-coefficient
space-fractional diffusion with WSLD spatial operators.

1D:  u_t = d_plus(x) * D_left^alpha u + d_minus(x) * D_right^alpha u + f
is advanced by

    (I - G) U^{n+1} = (I + G) U^n + tau F^{n+1/2},   G = tau/(2 h^alpha) (D+ A + D- A^T),

with ``I - G`` factored once per run.  G is one two-sided operator,
``operators._TwoSided``, and ``I + G`` is never applied.  From
``_HODLR_MIN_INTERIOR`` interior nodes every run solves with a
hierarchically off-diagonal low-rank (HODLR) factorization, ``_hodlr``,
built from the operator's O(n) data, so ``I - G`` is never formed:

    U^{n+1} = (I - G)^{-1} (2 U^n + tau F^{n+1/2}) - U^n.

The nodes are padded with a few zero-coefficient nodes, whose rows of
``I - G`` are rows of I, and halved, level by level, into equal halves
until every leaf holds at most ``_HODLR_LEAF``.  The factorization is
stored as stacks, one for the leaves and one set per level, so that
``_apply`` solves with a few products per level, for one right-hand side
or a block of them.  Leaves are inverted through LU, and the two
off-diagonal blocks of every split are low-rank products, truncated at
``_HODLR_TOL`` of a bound on ``||I - G||``, a level at a time.  All of
them are cut, up to diagonal scalings and an ``m x m`` corner, from one
Hankel matrix of the stencil, which an adaptive randomized range finder
compresses once (Halko, Martinsson & Tropp, SIAM Review 53 (2011)); the
Woodbury formula joins the levels, each split keeping its small
``K^{-1}`` and its factors (Hackbusch, Hierarchical Matrices, Springer
(2015)).  A fixed probe solve checks the factorization
against the O(n log n) ``_TwoSided.matvec``; a run whose factorization
fails writes ``I - G`` in place on the operator's dense form and solves
with its LU factors, by the same equation, at every step.
Smaller grids LU-factor the ``I - G`` of ``build_cn_system``.  A run that
returns its history, or has fewer steps than unknowns (the inverse costs
about ``2 n^3`` flops and saves only the per-step ``lu_solve`` call
overhead), solves with the factors too.  Any other marches
``w = (I - G) U``, for which the same equation is

    w^{n+1} = P w^n + tau F^{n+1/2},   P = (I + G) (I - G)^{-1} = 2 (I - G)^{-1} - I,

one matvec per step with the Cayley transform P, formed from the inverse
in O(n^2) and in its place; ``U = (I - G)^{-1} w`` is recovered once at
the end, with the inverse restored from P bit for bit.  2D adds the
y-direction analog, one operator per axis, and factors the implicit
operator into two one-dimensional ones; the Peaceman-Rachford and Douglas
sweeps of that factored equation are one propagator,
``u -> Bx (u Cy + g) + g``, three products per step with matrices read
off the two explicit inverses.  Interior unknowns are stored as arrays
``u[i, j] = u(x_i, y_j)``; the x-operator acts as ``kx @ u`` and the
y-operator as ``u @ ky.T``, and the Kronecker-product form of the scheme
is never materialized.  Products do not reject infs
or NaNs, so the time loop checks every new state itself.

The forcing is sampled in blocks of half-step times, at most
``_BLOCK_BYTES`` of samples at a time, and the block is then stepped one
row at a time.  A forcing that declares ``broadcasts_over_t`` fills a
block with one call on a column of times; any other forcing with one call
per step.  Both give the same block, so the solution does not depend on
the declaration.  A 1D run with P that has steps enough to pay for the
squarings composes its blocks instead:
a block of ``2**L - 1`` affine steps is reduced pairwise, as in a
parallel prefix (Blelloch 1990), in L matrix products with
``P, P^2, ..., P^(2^(L-1))``, which are formed once by squaring.  Its
final state differs from the stepped one by round-off, and a block that
could hold a non-finite state is stepped row by row, so errors name the
same step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import lu_factor, lu_solve, toeplitz

from .coefficients import DEFAULT_TUPLE, ShiftTuple, _integer, validate_order
from .operators import Grid1D, _TwoSided

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

# Forcing samples per block, in bytes.  ``_march`` holds a few blocks on top
# of the solver's matrices: the samples, and the manufactured forcings'
# scratch while sampling or the rows of ``_reduce``.  Against this cap,
# 1 MiB gave the Table 2 benchmark (``bench/run.py``, workload
# ``table2_adi2d``) wall times of 0.98-1.03 s against 1.04-1.16 s and a peak
# RSS of 87.6-87.7 MB against 87.5-87.9 MB (three alternating pairs, one
# BLAS thread on a 2-vCPU Xeon): faster in each pair, but too few pairs to
# settle.
_BLOCK_BYTES = 256 * 1024

# Largest step count whose half-step times ``(n + 0.5) * tau`` stay distinct.
_MAX_STEPS = 2**53

# Block reduction on the 1D propagator path (``_march``, ``_reduce``): its
# L - 1 squarings, 2 n^3 flops each, may cost at most this many times the
# 2 n^2 n_steps flops of the steps, which turns it on from 3.5 n steps at
# n = 119, 2.5 n at 399 and 2 n at 599.  Reduced against stepping with P,
# one BLAS thread on a 2-vCPU Xeon (best of nine): 0.83 at n = 119 with
# 4 n steps and 0.68 with 8 n; 0.98 at n = 399 with 3 n and 1.01 with 5 n;
# 0.72 at n = 599 with 2 n.  Below the rule: 1.04 and 0.85 at n = 119 with
# 2 n and 3 n, 1.07 and 1.05 at 399 with 2 n and 2.5 n, 1.03 and 0.87 at
# 599 with n and 1.5 n.  L is the largest that fits, since products with
# few rows and the forcing sampled in short blocks make a small L slower
# than stepping (L <= 4 ran 1.06-1.97x the stepped time at 399).
_SQUARING_SHARE = 2

# Magnitude bound below which a reduced block stands: 2**64 under overflow,
# room for the round-off of summing the block in either order.
_REDUCE_LIMIT = 2.0**960

# 1D runs with at least this many interior nodes solve with ``_hodlr``; smaller
# ones take the dense path of ``solve_1d`` (LU solves, or the inverse stepped
# or reduced).  Whole ``solve_1d`` runs of the manufactured case at alpha 1.5,
# HODLR over the dense path with this constant patched in-process, both
# benchmark tuples, two passes of best of seven alternating runs, one BLAS
# thread on a 2-vCPU Xeon VM:
#
#   n     1 step     10 steps   100        n          2 n        4 n
#   399   1.37-1.51  1.33-1.37  0.97-1.01  0.83-0.90  0.98-1.02  1.18-1.26
#   599   0.91-0.96  0.85-0.91  0.58-0.60  0.43-0.44  0.65-0.82  0.79-0.81
#   799   0.68-0.70  0.63-0.66  0.41-0.42  0.27-0.29  0.44-0.48  0.56-0.60
#
# At n = 599, just below the switch, HODLR wins at every step count.  At
# n = 399 it loses about 1.6 ms on the 3.2-3.9 ms of a 1-10 step run and up
# to 26% from 4 n steps, where the block reduction is strong, so the
# break-even lies between 399 and 599 and moves with the step count.  No
# benchmark workload runs between n = 119 and 1999 to place it more closely.
_HODLR_MIN_INTERIOR = 600

# Largest HODLR leaf: the n nodes are halved L times, the fewest that leave no
# larger leaf, into leaves of ceil(n / 2**L), zero-coefficient nodes padding
# the last.  Whole ``solve_1d`` runs with 100 steps at n = 999 / 1999 / 2999
# (alpha 1.7, the second benchmark tuple, one BLAS thread on a 2-vCPU Xeon,
# best of five in each of two runs), ms: leaves of 64: 25-28 / 63-68 /
# 105-106; 96: 24-26 / 62-64 / 95-101; 128: 24-25 / 61-62 / 94-100; 192:
# 23-26 / 59-60 / 110-112; 256: 33-36 / 77-80 / 111-113.
_HODLR_LEAF = 128

# Off-diagonal blocks are truncated at this times a bound on ||I - G||.  Single
# solves at n = 2999 (alpha 1.7, the second benchmark tuple, tau = 1/100)
# differ from dense LU with refinement by 1.4e-11 of max|x| at 1e-14 and by
# 1.4e-12 from 1e-15 to 1e-17 (dense LU alone: 1.0e-13).  Past 1e-15 the
# truncation sits under round-off: the computed singular values of the
# Hankel matrix level off at 3.6e-16, about eps times its largest (3.9).
_HODLR_TOL = 1e-15

# Seed of the Gaussian sketches and of the check's probe, so runs repeat bit for bit.
_HODLR_SEED = 0

# First width of the Hankel sketch, doubled until the probes pass: block ranks
# measured 15-24 at n = 999 to 2999.
_HODLR_SKETCH = 32

# Rows of the strided Hankel view read at a time, so H is never formed whole.
_HODLR_CHUNK = 256

# Largest normwise backward error ``||(I - G) x - b|| / (||I - G|| ||x|| + ||b||)``
# of the check's probe solve, with the bound on ``||I - G||``.  Measured at
# most 2.2e-16 over n = 1000, 2001 and 3000, alpha 1.05, 1.5 and 1.95, both
# benchmark tuples and tau from 1e-6 to 1e-1.
_HODLR_CHECK = 1e-13


def _finite_array(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


class _Problem:
    """Validation and step size shared by ``Problem1D`` and ``Problem2D``."""

    def _validate(self, orders: tuple[str, ...], axes: tuple[tuple[str, int], ...]) -> None:
        """Check the ``orders``, then per axis ``(p, n)`` the ``p_plus`` and
        ``p_minus`` of length n, then ``u0`` and the schedule, in that order."""
        for name in orders:
            setattr(self, name, validate_order(getattr(self, name)))
        for prefix, n in axes:
            for name in (f"{prefix}_plus", f"{prefix}_minus"):
                arr = _finite_array(getattr(self, name), (n,), name)
                if np.any(arr < 0.0):
                    raise ValueError(f"{name} must be nonnegative")
                setattr(self, name, arr)
        self.u0 = _finite_array(self.u0, tuple(n for _, n in axes), "u0")
        if not (np.isfinite(self.t_final) and self.t_final >= 0.0):
            raise ValueError("t_final must be finite and nonnegative")
        if _integer(self.n_steps, "n_steps") < 1:
            raise ValueError("n_steps must be positive")
        if self.n_steps > _MAX_STEPS:
            raise ValueError("n_steps must be at most 2**53")

    @property
    def tau(self) -> float:
        return self.t_final / self.n_steps


@dataclass
class Problem1D(_Problem):
    """1D fractional diffusion problem on the interior of a uniform grid.

    ``d_plus``/``d_minus`` hold the finite, nonnegative diffusion
    coefficients at the interior nodes, and ``u0`` is the finite interior
    initial data.  ``forcing(x, t)`` takes the node array and a float time
    and returns values that broadcast to the nodes.  A forcing whose
    ``broadcasts_over_t`` attribute is true also promises
    ``forcing(x, t[:, None])[k] == forcing(x, t[k])`` for a column of times,
    so a solver may sample many steps with one call; ``manufactured_1d``
    declares it.  The declaration lives on the callable, so replacing the
    forcing drops it.  Non-finite or negative data raise ``ValueError``
    naming the argument, and so does an ``n_steps`` that is not an integer
    (a bool is not one) or exceeds 2**53.  ``tau = t_final / n_steps``.
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
        self._validate(("alpha",), (("d", self.grid.n_interior),))

    @property
    def nodes(self) -> tuple[np.ndarray]:
        """The interior nodes as ``forcing`` takes them: ``(x,)``."""
        return (self.grid.interior_nodes(),)


@dataclass
class Problem2D(_Problem):
    """2D fractional diffusion problem with separable coefficients.

    The x coefficients depend on x only and the y coefficients on y only
    (this separability is what makes the two ADI sweep matrices independent
    of the slice index).  ``u0`` and the solution are arrays of shape
    ``(n_x - 1, n_y - 1)`` indexed ``[i, j] -> (x_i, y_j)``; ``forcing(x, y, t)``
    must broadcast column-vector x against row-vector y.  As in
    ``Problem1D``, a true ``broadcasts_over_t`` attribute on the forcing
    declares that ``forcing(x, y, t[:, None, None])`` stacks the samples at
    the times ``t``; ``manufactured_2d`` declares it.  Coefficients, ``u0``
    and ``n_steps`` are validated as in ``Problem1D``, per axis.
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
        axes = (("d", self.grid_x.n_interior), ("e", self.grid_y.n_interior))
        self._validate(("alpha", "beta"), axes)

    @property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """The interior nodes as ``forcing`` takes them: ``(x[:, None], y[None, :])``."""
        return np.ix_(self.grid_x.interior_nodes(), self.grid_y.interior_nodes())


def _inverse(a: np.ndarray) -> np.ndarray:
    """Explicit inverse of ``a`` from its LU factors.  A Fortran-order ``a`` is
    factored in place and the identity overwritten by the inverse."""
    return lu_solve(lu_factor(a, overwrite_a=True), np.eye(len(a), order="F"), overwrite_b=True)


def _identity_plus(sign: float, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``I + G`` (``sign`` 1) or ``I - G`` (-1) into ``out``, which may be ``g``: ``g + 0.0``
    or ``0.0 - g`` plus 1 on the diagonal, so zeros carry the signs of the sums."""
    out = np.add(g, 0.0, out=out) if sign > 0 else np.subtract(0.0, g, out=out)
    out.flat[:: len(out) + 1] += 1.0
    return out


def _cayley(inv: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``2 inv - I``, into ``out`` if given (which may be ``inv``).  For
    ``inv = (I - K)^{-1}`` that is ``(I - K)^{-1} (I + K)``, which equals
    ``(I + K) (I - K)^{-1}``, formed in O(n^2) without applying ``I + K``."""
    out = np.multiply(2.0, inv, out=out)
    out.flat[:: len(out) + 1] -= 1.0
    return out


def _sampler(forcing: Callable, nodes: tuple[np.ndarray, ...], shape: tuple[int, ...]):
    """``sample(t)``: the forcing at the times ``t`` as one ``(len(t), *shape)`` block.

    A forcing that declares ``broadcasts_over_t`` is called once on a column of
    times, any other once per time with a float.  A result that does not
    broadcast to the block raises ``ValueError`` naming the forcing.
    """
    if getattr(forcing, "broadcasts_over_t", False):
        column = (-1,) + (1,) * len(shape)

        def sample(t):
            f = np.asarray(forcing(*nodes, t.reshape(column)), dtype=float)
            return _fit(f, (len(t), *shape), f"for {len(t)} times")

    else:

        def sample(t):
            block = np.empty((len(t), *shape))
            for k, t_k in enumerate(t.tolist()):
                f = np.asarray(forcing(*nodes, t_k), dtype=float)
                block[k] = _fit(f, shape, f"at t = {t_k!r}")
            return block

    return sample


def _fit(f: np.ndarray, shape: tuple[int, ...], when: str) -> np.ndarray:
    try:
        return np.broadcast_to(f, shape)
    except ValueError:
        raise ValueError(
            f"forcing returned shape {f.shape} {when}; expected one that broadcasts to {shape}"
        ) from None


def _march(
    step: Callable[[np.ndarray, np.ndarray], np.ndarray],
    u0: np.ndarray,
    sample: Callable[[np.ndarray], np.ndarray],
    n_steps: int,
    tau: float,
    return_history: bool,
    powers: Sequence[np.ndarray] = (),
) -> np.ndarray:
    """Advance ``u0`` by ``n_steps`` calls ``u = step(u, f[k])``.

    The half-step times ``t_{n+1/2}`` go to ``sample`` in blocks of at most
    ``_BLOCK_BYTES`` of forcing, and the block ``f = sample(t)`` is then
    stepped one row at a time; with ``return_history`` every state is written
    into one ``(n_steps + 1, *u0.shape)`` array, ``u0`` first.  When ``step``
    is ``u -> P u + tau f[k]``, a run without history may pass ``powers``,
    ``P, P^2, ..., P^(2^(L-1))`` (they imply no history): it then takes
    blocks of ``2**L - 1`` steps and reduces each in L products
    (``_reduce``), and steps a block row by row from its first state only
    when the reduction cannot vouch that every state in it is finite.  A
    non-finite state raises ``ValueError``: naming the forcing, the step and
    its time when that step's forcing sample is non-finite, otherwise saying
    the state has infs or NaNs at that step.  Overflow and invalid
    floating-point warnings are off inside the loop, since the check reports
    their result.
    """
    u, history = u0, None
    if return_history:
        history = np.empty((n_steps + 1, *u0.shape))
        history[0] = u0
    reduce = bool(powers)
    if reduce:
        block = 2 ** len(powers) - 1
        # 2-norm bound on every P^j, j < 2**L; the Frobenius norm needs no temporary
        growth = math.prod(max(1.0, float(np.linalg.norm(q))) for q in powers)
        rows = np.empty((2 ** len(powers), u.size))  # one buffer for every block
    else:
        block = max(1, _BLOCK_BYTES // (8 * u.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, block):
            t = (np.arange(start, min(start + block, n_steps)) + 0.5) * tau
            f = sample(t)
            if reduce and (end := _reduce(powers, growth, u, tau, f, rows)) is not None:
                u = end
            else:
                for k in range(len(f)):
                    u = step(u, f[k])
                    if not np.isfinite(u).all():
                        culprit = "state has infs or NaNs"
                        if not np.isfinite(f[k]).all():
                            culprit = "forcing returned a non-finite value"
                        raise _non_finite(culprit, start + k, tau)
                    if history is not None:
                        history[start + k + 1] = u
            del f  # free this block before sampling the next
    return u if history is None else history


def _non_finite(culprit: str, step: int, tau: float) -> ValueError:
    """The error naming ``culprit`` at ``step`` and its half-step time."""
    return ValueError(f"{culprit} at step {step} (t = {(step + 0.5) * tau!r})")


def _reduce(powers: Sequence[np.ndarray], growth: float, u: np.ndarray, tau: float,
            f: np.ndarray, rows: np.ndarray) -> np.ndarray | None:
    """``u`` after the steps ``u -> P u + tau f[k]``, or None when a state among
    them might not be finite.

    The rows ``[u, tau f_0, ..., tau f_{m-1}]`` are written into the
    ``2**L x n`` buffer ``rows``, zero-padded at the old end, and summed
    pairwise as ``older @ (P^(2^l))^T + newer`` at level l = 0, ..., L - 1,
    one product per level; the last sum is the state after the
    m <= 2**L - 1 steps.  Every state inside the block is a sum of these
    rows times powers ``P^j``, ``j < 2**L``, whose 2-norms are at most
    ``growth``.  So the reduction stands only when ``2**L sqrt(n) max|rows|
    growth`` stays below ``_REDUCE_LIMIT`` (which also rejects infs and
    NaNs in the rows) and the end state is finite.
    """
    rows[: -len(f) - 1] = 0.0
    rows[-len(f) - 1] = u
    np.multiply(tau, f, out=rows[-len(f) :])
    largest = np.maximum(rows.max(), -rows.min())  # NaN if any entry is
    if not largest * growth * len(rows) * math.sqrt(u.size) < _REDUCE_LIMIT:
        return None
    for q in powers:
        newer = rows[1::2]
        rows = rows[0::2] @ q.T
        rows += newer
    return rows[0] if np.isfinite(rows[0]).all() else None


def _levels(n: int, n_steps: int) -> int:
    """Levels L of the block reduction for ``n`` unknowns and ``n_steps``
    steps, or 0 when its squarings do not pay.  Blocks of ``2**L - 1`` steps
    fit in ``_BLOCK_BYTES``, and L is at most the bit length of ``n_steps``."""
    by_memory = (max(1, _BLOCK_BYTES // (8 * n)) + 1).bit_length() - 1
    levels = min(by_memory, int(n_steps).bit_length())
    return 0 if (levels - 1) * n > _SQUARING_SHARE * n_steps else levels


def _truncate(u: np.ndarray, v: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``(u', vt')`` with ``u'[j] vt'[j]`` the best approximation of
    ``u[j] v^T`` whose dropped singular values are all at most ``tol``, for a
    stack u and one v: one QR of v, and the QR and SVD of u batched.
    Singular values at most ``tol`` are zeroed, and every product keeps as
    many columns as the largest rank in the stack."""
    qu, ru = np.linalg.qr(u)
    qv, rv = np.linalg.qr(v)
    w, sigma, zt = np.linalg.svd(ru @ rv.T)
    sigma[sigma <= tol] = 0.0
    k = int(np.count_nonzero(sigma, axis=-1).max())
    return qu @ (w[..., :k] * sigma[..., None, :k]), zt[..., :k, :] @ qv.T


def _hankel_factors(col: np.ndarray, rows: int,
                    tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Factors ``(p, q)`` with ``H ~ p q^T`` for the Hankel matrix
    ``H[i, k] = col[i + k]`` with ``rows`` rows, or None.

    An adaptive randomized range finder (Halko, Martinsson & Tropp, SIAM
    Review 53 (2011), 4.3-4.4): p is an orthonormal basis of ``H omega`` for
    ``_HODLR_SKETCH`` Gaussian columns, doubled until ten more probes leave
    residuals that bound ``||H - p p^T H||`` by ``tol`` (failing with
    probability 1e-10); ``q = H^T p``.  H is read in row chunks of its
    strided view, never formed whole.  None when the sketch would need more
    columns than half of H has.
    """
    h = sliding_window_view(col, len(col) - rows + 1)[:rows]
    rng = np.random.default_rng(_HODLR_SEED)
    width = _HODLR_SKETCH
    while 2 * width <= min(h.shape):
        y = _chunked(h, rng.standard_normal((h.shape[1], width + 10)))
        p = np.linalg.qr(y[:, :width])[0]
        probes = y[:, width:]
        for _ in range(2):  # a second projection removes the first one's round-off
            probes -= p @ (p.T @ probes)
        if 10.0 * math.sqrt(2.0 / math.pi) * np.linalg.norm(probes, axis=0).max() <= tol:
            return p, _chunked(h.T, p)
        width *= 2
    return None


def _chunked(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``h @ x`` over blocks of ``_HODLR_CHUNK`` rows of the strided view ``h``."""
    out = np.empty((len(h), x.shape[1]))
    for s in range(0, len(h), _HODLR_CHUNK):
        np.matmul(h[s : s + _HODLR_CHUNK], x, out=out[s : s + _HODLR_CHUNK])
    return out


def _offdiagonal(op: _TwoSided, c_plus: np.ndarray, c_minus: np.ndarray, corner: np.ndarray,
                 p: np.ndarray, q: np.ndarray,
                 half: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The off-diagonal blocks of ``M = I - G`` over one level's equal splits
    ``[I1 | I2]`` of ``half`` nodes each, with the padded coefficients
    ``c_plus`` and ``c_minus``: factors ``(u, v)`` with ``M[I1, I2] ~ u[j] v^T``
    in split j, then those of ``M[I2, I1]``.

    Every split has the same T21 = ``A[I2, I1]``, which is ``H[:half, :half]``
    with its columns reversed, for the Hankel ``H ~ p q^T`` of the root's
    split; T12 = ``A[I1, I2]`` is zero outside its ``w x w`` corner, the
    trailing block of ``corner``.  Only the coefficients, which scale the
    rows of u, differ from split to split, so one v serves them all.  The
    second block is formed after the first is taken, so only one of them
    is held untruncated at a time.
    """
    w, rank = min(len(corner), half), p.shape[1]
    corner = corner[len(corner) - w :, :w]
    t21_left, t21_right = p[:half], q[:half][::-1]  # T21 ~ t21_left t21_right^T
    c_plus, c_minus = (c.reshape(-1, 2, half, 1) for c in (c_plus, c_minus))
    # M[I1, I2] = -scale (c+ T12 + c- T21^T)
    u, v = np.zeros((len(c_plus), half, w + rank)), np.zeros((half, w + rank))
    np.multiply(c_plus[:, 0, half - w :], corner, out=u[:, half - w :, :w])
    np.multiply(c_minus[:, 0], t21_right, out=u[:, :, w:])
    v[:w, :w] = np.eye(w)
    v[:, w:] = t21_left
    u *= -op.scale
    yield u, v
    # M[I2, I1] = -scale (c+ T21 + c- T12^T)
    u, v = np.zeros((len(c_plus), half, rank + w)), np.zeros((half, rank + w))
    np.multiply(c_plus[:, 1], t21_left, out=u[:, :, :rank])
    np.multiply(c_minus[:, 1, :w], corner.T, out=u[:, :w, rank:])
    v[:, :rank] = t21_right
    v[half - w :, rank:] = np.eye(w)
    u *= -op.scale
    yield u, v


def _stacks(op: _TwoSided, depth: int, tol: float, corner: np.ndarray, p: np.ndarray,
            q: np.ndarray) -> tuple[np.ndarray, list]:
    """A HODLR factorization ``(leaves, levels)`` of ``M = I - G`` on the
    ``N = 2 len(q)`` nodes padded with zero coefficients, built from the
    leaves up.

    The N nodes are halved ``depth`` times into ``2**depth`` leaves of one
    size, and every split of a level into equal halves.  ``leaves`` stacks
    the leaf inverses, each inverted alone through ``_inverse``.  A split has
    ``M = D + U Vt`` with ``D = diag(M11, M22)``, ``U = diag(u12, u21)`` and
    ``Vt = [[0, v12^T], [v21^T, 0]]`` from ``_offdiagonal`` and
    ``_truncate``; Woodbury gives ``M^{-1} = (I - Y K^{-1} Vt) D^{-1}`` with
    ``Y = D^{-1} U = diag(Y1, Y2)`` and ``K = I + Vt Y``.  ``levels[d]``
    stacks ``(K^{-1}, Vt, Y)`` of the ``2**d`` splits at depth d: ``Vt[j]``
    is ``[v12^T, v21^T]`` and ``Y[j]`` is ``[Y1, Y2]``.  ``Y`` of a level
    comes from one ``_apply`` down to depth d + 1, on its ``u12`` and ``u21``
    as one block of columns.
    """
    n, nodes = len(op.a), 2 * len(q)
    c_plus, c_minus = (np.pad(c, (0, nodes - n)) for c in (op.c_plus, op.c_minus))
    size = nodes >> depth
    leaves = np.empty((2**depth, size, size))
    for j in range(2**depth):
        leaf = slice(j * size, (j + 1) * size)
        # every diagonal block of the Toeplitz A is its leading one
        g = _TwoSided(op.a[:size, :size], c_plus[leaf], c_minus[leaf], op.scale).dense()
        leaves[j] = _inverse(_identity_plus(-1.0, g, g))
    levels = [None] * depth
    for d in reversed(range(depth)):
        half = nodes >> (d + 1)
        factors = _offdiagonal(op, c_plus, c_minus, corner, p, q, half)
        blocks = [_truncate(u, v, tol) for u, v in factors]
        r = max(u.shape[-1] for u, _ in blocks)
        u, vt = np.zeros((2**d, 2, half, r)), np.zeros((2**d, 2, r, half))
        for i, (u_i, vt_i) in enumerate(blocks):
            u[:, i, :, : u_i.shape[-1]], vt[:, i, : vt_i.shape[1]] = u_i, vt_i
        del blocks  # before the level's solve, where the build peaks
        y = _apply((leaves, levels), u.reshape(nodes, r), d + 1).reshape(u.shape)
        k = np.zeros((2**d, 2, r, 2, r))
        k[:, 0, :, 1], k[:, 1, :, 0] = (vt @ y[:, ::-1]).transpose(1, 0, 2, 3)
        levels[d] = (np.linalg.inv(k.reshape(2**d, 2 * r, 2 * r) + np.eye(2 * r)), vt, y)
    return leaves, levels


def _apply(stacks: tuple[np.ndarray, list], x: np.ndarray, top: int = 0) -> np.ndarray:
    """``D^{-1} x`` for a block of columns x on the padded nodes, with D the
    block diagonal of M over the nodes at depth ``top``: ``M^{-1} x`` at
    depth 0.  The leaves solve first, then each level from the deepest up,
    each as a few products on stacks; x is left as it is."""
    leaves, levels = stacks
    rows, k = x.shape
    x = (leaves @ x.reshape(*leaves.shape[:2], k)).reshape(rows, k)
    for kinv, vt, y in reversed(levels[top:]):
        halves = x.reshape(*y.shape[:3], k)
        c = kinv @ (vt @ halves[:, ::-1]).reshape(len(kinv), len(kinv[0]), k)
        halves -= y @ c.reshape(*vt.shape[:3], k)
    return x


def _solve(stacks: tuple[np.ndarray, list], b: np.ndarray) -> np.ndarray:
    """``M^{-1} b`` for a vector or a block of columns b: b padded with zeros
    to every node, ``_apply``, and the rows of b read back."""
    leaves = stacks[0]
    x = np.zeros((leaves.shape[0] * leaves.shape[1], b[0].size))
    x[: len(b)] = b.reshape(len(b), -1)
    return _apply(stacks, x)[: len(b)].reshape(b.shape)


def _hodlr(op: _TwoSided) -> Callable[[np.ndarray], np.ndarray] | None:
    """``b -> (I - G)^{-1} b`` for a vector or a block of columns b, through a
    HODLR factorization, or None when it fails its check.

    The n nodes take the fewest halvings, L, that leave leaves of at most
    ``_HODLR_LEAF``, and are padded with zero-coefficient nodes to
    ``s 2**L``, for leaves of ``s = ceil(n / 2**L)``: fewer than ``2**L``
    padded nodes.  A padded node's row of ``I - G`` is a row of I, so the
    padded matrix is block upper triangular and solving it on ``[b; 0]``
    gives ``[(I - G)^{-1} b; 0]``, whatever the coupling block holds; the
    HODLR approximation keeps those identity rows.  The solver is ``_solve``
    on the stacks of ``_stacks``, which a ``functools.partial`` holds as its
    one argument.  Blocks are truncated at ``_HODLR_TOL`` times
    ``N = 1 + 2 s max(c) ||phi||_1``, a bound on ``||I - G||_2``.  The check
    solves one fixed Gaussian probe b and needs the normwise backward error
    ``||(I - G) x - b|| / (N ||x|| + ||b||)``, with ``G x`` from the
    O(n log n) ``_TwoSided.matvec``, to be at most ``_HODLR_CHECK``; a NaN,
    as from a solve that overflows, fails it.
    """
    n = len(op.a)
    phi, m = op.stencil()
    weight = op.scale * max(op.c_plus.max(), op.c_minus.max())
    norm = 1.0 + 2.0 * weight * np.abs(phi).sum()
    tol = _HODLR_TOL * norm
    depth = (-(-n // _HODLR_LEAF) - 1).bit_length()  # 2**depth >= n / _HODLR_LEAF
    half = -(-n // 2**depth) * 2**depth // 2  # half the padded nodes
    if weight > 0.0:
        factors = _hankel_factors(op.a[1:, 0], n - half, tol / weight)
        if factors is None:
            return None
    else:
        factors = np.zeros((n - half, 0)), np.zeros((half, 0))
    p, q = factors
    del factors  # the zero-extended copy replaces p
    p = np.pad(p, ((0, 2 * half - n), (0, 0)))  # zero rows for the padded nodes
    corner = toeplitz(phi[:m], np.zeros(m))  # A[I1, I2] on I1's last m and I2's first m nodes
    solve = functools.partial(_solve, _stacks(op, depth, tol, corner, p, q))
    probe = np.random.default_rng(_HODLR_SEED).standard_normal(n)
    with np.errstate(over="ignore", invalid="ignore"):
        x = solve(probe)
        residual = np.linalg.norm(x - op.matvec(x) - probe)
        backward = residual / (norm * np.linalg.norm(x) + np.linalg.norm(probe))
    return solve if backward <= _HODLR_CHECK else None


def _operator_1d(problem: Problem1D, shifts: ShiftTuple | Sequence[int]) -> _TwoSided:
    return _TwoSided.on(
        problem.alpha, shifts, problem.grid, problem.d_plus, problem.d_minus, problem.tau
    )


def build_cn_system(
    problem: Problem1D, shifts: ShiftTuple | Sequence[int] = DEFAULT_TUPLE
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the Crank-Nicolson step matrices (M_minus, M_plus).

    ``M_minus = I - G`` and ``M_plus = I + G`` with
    ``G = tau/(2 h^alpha) (D+ A + D- A^T)``, so ``M_minus + M_plus = 2 I``
    exactly off the diagonal and wherever ``|G_ii| < 1``; a larger ``G_ii``
    can leave the diagonal one rounding unit of ``1 + |G_ii|`` from 2.
    Both come in Fortran order, so LAPACK can factor them in place.
    ``solve_1d`` calls this below ``_HODLR_MIN_INTERIOR`` interior nodes
    and uses only ``M_minus``: it never applies ``M_plus``.
    """
    g = _operator_1d(problem, shifts).dense()
    m_minus = _identity_plus(-1.0, g, np.empty_like(g))
    return m_minus, _identity_plus(1.0, g, g)


def solve_1d(
    problem: Problem1D,
    shifts: ShiftTuple | Sequence[int] = DEFAULT_TUPLE,
    return_history: bool = False,
) -> np.ndarray:
    """March the 1D scheme to t_final and return the interior solution.

    From ``_HODLR_MIN_INTERIOR`` (600) interior nodes every run steps
    ``u -> solve(2 u + tau f) - u`` with the HODLR solver of ``I - G`` (see
    the module docstring), which matches dense LU to round-off, not bit for
    bit (README "Known deviations" 4).  A factorization that fails its
    check leaves the run to the LU factors of ``I - G``, written alone and
    in place, which step it the same way, for any step count and for
    histories.  Smaller grids take ``I - G`` from ``build_cn_system`` and
    LU-factor it once.  A run that returns its history, or has fewer steps
    than unknowns, steps the same way with the factors.  A final-state run
    from ``n_steps >= n_interior`` marches ``w = (I - G) u`` instead (see
    the module docstring): ``w0`` is one matvec before the factorization,
    each step ``w -> P w + tau f``, and ``u = (I - G)^{-1} w`` one matvec at
    the end.  P is formed in place of the inverse and halved back into it
    after the march, with the inverse's diagonal saved aside, so the
    conversion uses the inverse bit for bit.  With steps enough to pay for
    the squarings (``_levels``), blocks of those steps are composed in L
    products each (see ``_march``); only P and its powers outlive the
    setup, and the powers go before the conversion.  All of these agree to
    round-off.  The forcing is sampled at the half steps ``t_{n+1/2}``;
    a non-finite sample raises ``ValueError`` naming the step and its time,
    and any other non-finite state (``w``, or the final ``u`` recovered
    from it, named as the last step) one saying it has infs or NaNs.  With
    ``return_history=True`` the full ``(n_steps+1, n)`` trajectory is
    returned instead of the final slice.
    """
    n = problem.grid.n_interior
    tau = problem.tau
    op = None if n < _HODLR_MIN_INTERIOR else _operator_1d(problem, shifts)
    march = (_sampler(problem.forcing, problem.nodes, (n,)),
             problem.n_steps, tau, return_history)
    # Below _HODLR_MIN_INTERIOR, the inverse for final-state runs from
    # n_steps >= n.  Break-even against LU solves, one BLAS thread on a
    # 2-vCPU Xeon, linear fits over n/8 to 1.5 n steps, three runs:
    # stepping with the inverse at 17-36 steps for n = 119 and 178-877 at
    # 599; at 399 its matvec costs about what the two triangular solves do,
    # 212 and 341 (one run never).  The block reduction at 45-58, 1100-2522
    # and 731-1563.  The steps are memory-bound from ~400 nodes, hence the
    # spread; no workload runs between n/4 and n steps.  HODLR against the
    # dense path: see _HODLR_MIN_INTERIOR.
    solve = None if op is None else _hodlr(op)
    if solve is None:
        if op is None:
            m_minus = build_cn_system(problem, shifts)[0]
        else:  # a failed check: I - G alone, in place, and LU solves for every run
            m_minus = op.dense()
            _identity_plus(-1.0, m_minus, m_minus)
        if op is not None or problem.n_steps < n or return_history:
            lu = lu_factor(m_minus, overwrite_a=True)
            solve = lambda b: lu_solve(lu, b, check_finite=False)
    if solve is not None:
        # (I - G) u' = (I + G) u + tau f is u' = (I - G)^{-1} (2 u + tau f) - u
        return _march(lambda u, f: solve(2.0 * u + tau * f) - u, problem.u0, *march)
    # and for w = (I - G) u it is w' = P w + tau f, since I + G commutes with (I - G)^{-1}
    with np.errstate(over="ignore", invalid="ignore"):  # the check reports a non-finite state
        w = m_minus @ problem.u0
        inv = _inverse(m_minus)
        del m_minus  # factored in place
        diagonal = inv.diagonal().copy()
        p = _cayley(inv, out=inv)  # P overwrites the inverse for the march
        powers = [p]
        levels = _levels(n, problem.n_steps)
        while len(powers) < levels:
            powers.append(powers[-1] @ powers[-1])
        w = _march(lambda w, f: p @ w + tau * f, w, *march, powers[:levels])
        del powers  # before the conversion
        # the inverse again, bit for bit: 0.5 (2 x) is x, and the diagonal is restored
        inv = np.multiply(0.5, p, out=p)
        inv.flat[:: n + 1] = diagonal
        u = w @ inv.T
    if not np.isfinite(u).all():
        raise _non_finite("state has infs or NaNs", problem.n_steps - 1, tau)
    return u


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
    p = problem
    kx = _TwoSided.on(p.alpha, shifts_x, p.grid_x, p.d_plus, p.d_minus, p.tau)
    ky = _TwoSided.on(p.beta, shifts_y, p.grid_y, p.e_plus, p.e_minus, p.tau)
    return kx.dense(), ky.dense()


def step_adi(
    u: np.ndarray,
    f_mid: np.ndarray,
    tau: float,
    bx: np.ndarray,
    cy: np.ndarray,
    iy: np.ndarray,
) -> np.ndarray:
    """One ADI step from u^n to u^{n+1} with forcing sampled mid-step.

    Peaceman-Rachford and Douglas solve the same factored equation

        (I - Ax)(I - Ay) u^{n+1} = (I + Ax)(I + Ay) u^n + tau f^{n+1/2},

    whose solution is ``bx @ (u @ cy + g) + g`` with ``g = (tau/2 f) @ iy``,
    ``iy = (I - ky)^{-T}`` and the Cayley transforms
    ``bx = (I + kx)(I - kx)^{-1} = 2 (I - kx)^{-1} - I`` and
    ``cy = (I + ky)^T (I - ky)^{-T} = 2 iy - I``: three products per step.
    For PR this is its sweeps reassociated, for Douglas too since
    ``bx + I = 2 (I - kx)^{-1}``.
    ``f`` is scaled by ``tau/2`` before the product (so an overflowing
    ``tau/2 f`` gives a non-finite state) into an array of ``u``'s shape
    (so a forcing constant along x or y broadcasts).  Non-finite input
    gives a non-finite result, not an error.
    """
    g = np.multiply(0.5 * tau, f_mid, out=np.empty_like(u)) @ iy
    v = u @ cy
    v += g
    return np.add(bx @ v, g, out=v)


def solve_2d(
    problem: Problem2D,
    shifts_x: ShiftTuple | Sequence[int] = DEFAULT_TUPLE,
    shifts_y: ShiftTuple | Sequence[int] | None = None,
    variant: str = "peaceman_rachford",
    return_history: bool = False,
) -> np.ndarray:
    """March the 2D ADI scheme to t_final.

    Exactly two LU factorizations are computed per run -- one (n_x-1) system
    for x and one (n_y-1) system for y -- because the separable coefficients
    make the sweep matrices identical across slices.  Each is inverted once,
    and ``bx``, ``cy`` and ``iy`` are read off the two inverses in O(n^2)
    (``I + kx`` and ``I + ky`` are never formed), so every ``step_adi`` is
    three dense products.  ``variant`` must be one of ``ADI_VARIANTS``; both
    name the same factored scheme, which this one propagator computes.  A
    non-finite forcing sample raises ``ValueError`` naming the step and its
    time, and any other non-finite state one saying it has infs or NaNs.
    """
    if variant not in ADI_VARIANTS:
        raise ValueError(f"variant must be one of {ADI_VARIANTS}, got {variant!r}")
    kx, ky = build_adi_factors(problem, shifts_x, shifts_y)
    minus_x, minus_y = (_identity_plus(-1.0, k, k) for k in (kx, ky))
    bx = _cayley(_inverse(minus_x))
    iy = _inverse(minus_y).T
    cy = _cayley(iy)
    tau = problem.tau
    return _march(
        lambda u, f: step_adi(u, f, tau, bx, cy, iy),
        problem.u0,
        _sampler(problem.forcing, problem.nodes, problem.u0.shape),
        problem.n_steps,
        tau,
        return_history,
    )

"""Crank-Nicolson (1D) and ADI (2D) time stepping for variable-coefficient
space-fractional diffusion with WSLD spatial operators.

1D:  u_t = d_plus(x) * D_left^alpha u + d_minus(x) * D_right^alpha u + f
is advanced by

    (I - G) U^{n+1} = (I + G) U^n + tau F^{n+1/2},   G = tau/(2 h^alpha) (D+ A + D- A^T),

with ``I - G`` LU-factored once per run.  G is one two-sided operator,
``operators._TwoSided``, and ``I + G`` is never applied.  A run with fewer
steps than unknowns (the inverse costs about ``2 n^3`` flops and saves
only the per-step ``lu_solve`` call overhead) solves with the factors,

    U^{n+1} = (I - G)^{-1} (2 U^n + tau F^{n+1/2}) - U^n.

Any other marches ``w = (I - G) U``, for which the same equation is

    w^{n+1} = P w^n + tau F^{n+1/2},   P = (I + G) (I - G)^{-1} = 2 (I - G)^{-1} - I,

one matvec per step with the Cayley transform P, formed from the inverse
in O(n^2); ``U = (I - G)^{-1} w`` is recovered once at the end, or once
over the whole history.  2D adds the y-direction analog, one operator per
axis, and factors the implicit operator into two one-dimensional ones;
the Peaceman-Rachford and Douglas sweeps of that factored equation are
one propagator, ``u -> Bx (u Cy + g) + g``, three products per step with
matrices read off the two explicit inverses.  Interior unknowns are
stored as arrays ``u[i, j] = u(x_i, y_j)``; the x-operator acts as
``kx @ u`` and the y-operator as ``u @ ky.T``, and the Kronecker-product
form of the scheme is never materialized.  Products do not reject infs
or NaNs, so the time loop checks every new state itself.

The forcing is sampled in blocks of half-step times, at most
``_BLOCK_BYTES`` of samples at a time, and the block is then stepped one
row at a time.  A forcing that declares ``broadcasts_over_t`` fills a
block with one call on a column of times; any other forcing with one call
per step.  Both give the same block, so the solution does not depend on
the declaration.  A 1D run with P that returns only its final state, and
has steps enough to pay for the squarings, composes its blocks instead:
a block of ``2**L - 1`` affine steps is reduced pairwise, as in a
parallel prefix (Blelloch 1990), in L matrix products with
``P, P^2, ..., P^(2^(L-1))``, which are formed once by squaring.  Its
final state differs from the stepped one by round-off, and a block that
could hold a non-finite state is stepped row by row, so errors name the
same step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .coefficients import DEFAULT_TUPLE, ShiftTuple, validate_order
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

# 1D grids with at least this many interior nodes write ``I - G`` alone and in
# place; smaller grids take it from ``build_cn_system``, which also forms
# ``M_plus`` (dropped at once).  The switch stays only because the benchmark
# traces ``build_cn_system`` on its small 1D runs.
_IN_PLACE_MIN_INTERIOR = 600

# Forcing samples per block, in bytes.  ``_march`` holds a few blocks on top
# of the solver's matrices: the samples, and the manufactured forcings'
# scratch while sampling or the rows of ``_reduce``.  Against this cap,
# 1 MiB gave the Table 2 benchmark a peak RSS of 88.3-88.4 MB against
# 87.9 MB and wall times of 1.23-1.31 s against 1.33-1.35 s (two and three
# runs, one BLAS thread): too few to settle.
_BLOCK_BYTES = 256 * 1024

# Largest step count whose half-step times ``(n + 0.5) * tau`` stay distinct.
_MAX_STEPS = 2**53

# Block reduction on the 1D propagator path (``_march``, ``_reduce``): its
# L - 1 squarings, 2 n^3 flops each, may cost at most this many times the
# 2 n^2 n_steps flops of the steps, which turns it on from 3.5 n steps at
# n = 119, 2.5 n at 399, 2 n at 599 to 999 and 1.5 n at 1999.  Reduced
# against stepping with P, one BLAS thread on a 2-vCPU Xeon (best of
# nine): 0.83 at n = 119 with 4 n steps and 0.68 with 8 n; 0.98 at n = 399
# with 3 n and 1.01 with 5 n; 0.72 at n = 599 with 2 n.  Below the rule:
# 1.04 and 0.85 at n = 119 with 2 n and 3 n, 1.07 and 1.05 at 399 with 2 n
# and 2.5 n, 1.03 and 0.87 at 599 with n and 1.5 n.  Against stepping
# with the inverse, the fits in ``solve_1d`` give 0.74-0.92 at n = 999
# with 2 n and 0.81-0.87 at 1999 with 1.5 n.  L is the largest that fits,
# since products with few rows and the forcing sampled in short blocks
# make a small L slower than stepping (L <= 4 ran 1.06-1.97x the stepped
# time at 399).
_SQUARING_SHARE = 2

# Magnitude bound below which a reduced block stands: 2**64 under overflow,
# room for the round-off of summing the block in either order.
_REDUCE_LIMIT = 2.0**960


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
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, Integral):
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 1:
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


def _cayley(inv: np.ndarray) -> np.ndarray:
    """``2 inv - I``.  For ``inv = (I - K)^{-1}`` that is ``(I - K)^{-1} (I + K)``, which
    equals ``(I + K) (I - K)^{-1}``, formed in O(n^2) without applying ``I + K``."""
    out = 2.0 * inv
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
    is ``u -> P u + tau f[k]``, ``powers`` may hold ``P, P^2, ...,
    P^(2^(L-1))``: a run without history then takes blocks of ``2**L - 1``
    steps and reduces each in L products (``_reduce``), and steps a block
    row by row from its first state only when the reduction cannot vouch
    that every state in it is finite.  A non-finite state raises
    ``ValueError``: naming the forcing, the step and its time when that
    step's forcing sample is non-finite, otherwise saying the state has
    infs or NaNs at that step.  Overflow and invalid floating-point
    warnings are off inside the loop, since the check reports their result.
    """
    u, history = u0, None
    if return_history:
        history = np.empty((n_steps + 1, *u0.shape))
        history[0] = u0
    reduce = bool(powers) and history is None
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
    return levels if (levels - 1) * n <= _SQUARING_SHARE * n_steps else 0


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
    ``solve_1d`` calls this below ``_IN_PLACE_MIN_INTERIOR`` interior nodes
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

    ``I - G`` is LU-factored once.  With fewer steps than unknowns each step
    is ``u -> solve(2 u + tau f) - u`` with the factors; from
    ``n_steps >= n_interior`` on every run, with or without history, marches
    ``w = (I - G) u`` (see the module docstring): ``w0`` is one matvec
    before the factorization, each step ``w -> P w + tau f``, and
    ``u = (I - G)^{-1} w`` one matvec at the end, or one product over the
    history, whose first row is ``u0`` itself.  Without history, and with
    steps enough to pay for the squarings (``_levels``), blocks of those
    steps are composed in L products each (see ``_march``); only the inverse
    and the powers of P outlive the setup, and P goes before the conversion.
    All of these agree to round-off.  Below ``_IN_PLACE_MIN_INTERIOR`` (600)
    interior nodes ``I - G`` comes from ``build_cn_system``, from it on it
    is written alone, in place, with the same entries.  The forcing is
    sampled at the half steps ``t_{n+1/2}``; a non-finite sample raises
    ``ValueError`` naming the step and its time, and any other non-finite
    state (``w`` or the ``u`` recovered from it) one saying it has infs or
    NaNs.  With ``return_history=True`` the full ``(n_steps+1, n)``
    trajectory is returned instead of the final slice.
    """
    n = problem.grid.n_interior
    tau = problem.tau
    if n < _IN_PLACE_MIN_INTERIOR:
        m_minus = build_cn_system(problem, shifts)[0]
    else:
        m_minus = _operator_1d(problem, shifts).dense()
        m_minus = _identity_plus(-1.0, m_minus, m_minus)
    march = (_sampler(problem.forcing, (problem.grid.interior_nodes(),), (n,)),
             problem.n_steps, tau, return_history)
    # Inverse from n_steps >= n.  Break-even against LU solves, one BLAS
    # thread on a 2-vCPU Xeon, linear fits over n/8 to 1.5 n steps, three
    # runs: stepping with the inverse at 17-36 steps for n = 119, 178-877
    # at 599, 860-1547 at 999 and 827-949 at 1999 (one run never); at 399
    # its matvec costs about what the two triangular solves do, 212 and 341
    # (one run never).  The block reduction at 45-58, 731-1563, 401-924,
    # 1006-1063 and 1100-2522.  The steps are memory-bound from ~400 nodes,
    # hence the spread; no workload runs between n/4 and n steps.
    if problem.n_steps < n:
        lu = lu_factor(m_minus, overwrite_a=True)
        # (I - G) u' = (I + G) u + tau f is u' = (I - G)^{-1} (2 u + tau f) - u
        step = lambda u, f: lu_solve(lu, 2.0 * u + tau * f, check_finite=False) - u
        return _march(step, problem.u0, *march)
    # and for w = (I - G) u it is w' = P w + tau f, since I + G commutes with (I - G)^{-1}
    with np.errstate(over="ignore", invalid="ignore"):  # the checks report non-finite states
        w = m_minus @ problem.u0
        inv = _inverse(m_minus)
        del m_minus  # factored in place
        p = _cayley(inv)
        powers = [p]
        levels = 0 if return_history else _levels(n, problem.n_steps)
        while len(powers) < levels:
            powers.append(powers[-1] @ powers[-1])
        w = _march(lambda w, f: p @ w + tau * f, w, *march, powers[:levels])
        del p, powers  # before the conversion
        u = w @ inv.T
    if return_history:
        u[0] = problem.u0
    finite = np.isfinite(u).reshape(-1, n).all(axis=1)
    if not finite.all():
        step = problem.n_steps - len(finite) + int(np.argmin(finite))
        raise _non_finite("state has infs or NaNs", step, tau)
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
    nodes = (problem.grid_x.interior_nodes()[:, None], problem.grid_y.interior_nodes()[None, :])
    tau = problem.tau
    return _march(
        lambda u, f: step_adi(u, f, tau, bx, cy, iy),
        problem.u0,
        _sampler(problem.forcing, nodes, problem.u0.shape),
        problem.n_steps,
        tau,
        return_history,
    )

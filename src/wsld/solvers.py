"""Crank-Nicolson (1D) and ADI (2D) time stepping for variable-coefficient
space-fractional diffusion with WSLD spatial operators.

1D:  u_t = d_plus(x) * D_left^alpha u + d_minus(x) * D_right^alpha u + f
is advanced by

    (I - G) U^{n+1} = (I + G) U^n + tau F^{n+1/2},   G = tau/(2 h^alpha) (D+ A + D- A^T),

with ``I - G`` LU-factored once per run.  G is one two-sided operator,
``operators._TwoSided``, which has a dense form and an FFT form.  2D adds
the y-direction analog, one such operator per axis, and factors the
implicit operator into two one-dimensional ones; the Peaceman-Rachford
and Douglas sweeps of that factored equation are one propagator,
``u -> Bx (u Cy + g) + g``, three products per step.  Interior unknowns
are stored as arrays ``u[i, j] = u(x_i, y_j)``; the x-operator acts as
``kx @ u`` and the y-operator as ``u @ ky.T``, and the Kronecker-product
form of the scheme is never materialized.

The matrices never change during a run, so where it pays the factors are
turned into explicit inverses once and every step is a dense product:
always in 2D, where they give the propagator matrices, and in 1D when the
run has at least as many steps as unknowns (forming the inverse costs
about ``2 n^3`` flops and saves only the per-step ``lu_solve`` call
overhead, so large 1D grids with few steps keep solving with the
factors).  A 1D inverse below ``_FFT_MIN_INTERIOR`` nodes is folded into
one propagator ``P = (I - G)^{-1} (I + G)``, and each step is
``u -> P u + h_n`` with ``h_n = (I - G)^{-1} tau F^{n+1/2}``: one matvec,
the 1D shape of the ADI propagator.  Products do not reject infs or NaNs,
so the time loop checks every new state itself.

The forcing is sampled in blocks of half-step times, at most
``_BLOCK_BYTES`` of samples at a time, and the block is then stepped one
row at a time.  A forcing that declares ``broadcasts_over_t`` fills a
block with one call on a column of times; any other forcing with one call
per step.  Both give the same block, so the solution does not depend on
the declaration.

From ``_FFT_MIN_INTERIOR`` = 600 interior nodes on, the 1D explicit side
``u + G u`` goes through the operator's FFT form, O(n log n) per step,
instead of the dense ``M_plus @ u``, and ``M_plus`` is never formed; the
rule depends on the grid size only, independently of the inverse-or-LU
rule above.  Below it the output is bit-identical to the dense product;
from it on the two differ by round-off.  The implicit ``I - G`` of a
large grid is written as the rows of its transpose, which is the Fortran
order that LAPACK factors in place.
"""

from __future__ import annotations

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

# 1D grids with at least this many interior nodes apply the explicit CN side
# through the FFT of the stencil instead of the dense ``M_plus @ u``.  Per
# step with one BLAS thread on a 2-vCPU Xeon, dense against FFT: 93 against
# 102 us at n = 559, 108 against 101 us at n = 579, 115 against 100 us at
# n = 599 (the FFT length is 2048 from n = 512 to 1023).
_FFT_MIN_INTERIOR = 600

# Forcing samples per block, in bytes.  ``_march`` holds about three blocks
# on top of the solver's matrices: the manufactured forcings' temporaries
# while sampling, then the samples, ``tau F`` and ``h`` on the 1D propagator
# path.  Against this cap, 1 MiB gave the Table 2 benchmark a peak RSS of
# 88.3-88.4 MB against 87.9 MB and wall times of 1.23-1.31 s against
# 1.33-1.35 s (two and three runs, one BLAS thread): too few to settle.
_BLOCK_BYTES = 256 * 1024

# Largest step count whose half-step times ``(n + 0.5) * tau`` stay distinct.
_MAX_STEPS = 2**53


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
        if not isinstance(self.n_steps, Integral):
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
    or exceeds 2**53.  ``tau = t_final / n_steps``.
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
    prepare: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Advance ``u0`` by ``n_steps`` calls ``u = step(u, g[k])``.

    The half-step times ``t_{n+1/2}`` go to ``sample`` in blocks of at most
    ``_BLOCK_BYTES`` of forcing, and ``g = sample(t)``, or ``prepare`` of it,
    is then stepped one row at a time.  A non-finite state raises ``ValueError``:
    naming the forcing, the step and its time when that step's forcing
    sample is non-finite, otherwise saying the state has infs or NaNs at that
    step.  Overflow and invalid floating-point warnings are off inside the
    loop, since the check reports their result.
    """
    u = u0.copy()
    history = [u] if return_history else None
    block = max(1, _BLOCK_BYTES // (8 * u.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, block):
            t = (np.arange(start, min(start + block, n_steps)) + 0.5) * tau
            f = sample(t)
            for k, g in enumerate(f if prepare is None else prepare(f)):
                u = step(u, g)
                if not np.isfinite(u).all():
                    culprit = "state has infs or NaNs"
                    if not np.isfinite(f[k]).all():
                        culprit = "forcing returned a non-finite value"
                    raise ValueError(f"{culprit} at step {start + k} (t = {float(t[k])!r})")
                if history is not None:
                    history.append(u)
            del f, g  # free this block before sampling the next
    return np.array(history) if history is not None else u


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
    ``M_minus`` comes in Fortran order, so LAPACK can factor it in place.
    ``solve_1d`` calls this only below ``_FFT_MIN_INTERIOR`` interior nodes.
    """
    g = _operator_1d(problem, shifts).dense()
    m_minus = _identity_plus(-1.0, g, np.empty_like(g, order="F"))
    return m_minus, _identity_plus(1.0, g, g)


def solve_1d(
    problem: Problem1D,
    shifts: ShiftTuple | Sequence[int] = DEFAULT_TUPLE,
    return_history: bool = False,
) -> np.ndarray:
    """March the 1D scheme to t_final and return the interior solution.

    The left-hand matrix is LU-factored once (it does not depend on time).
    When ``n_steps >= n_interior`` its inverse is formed from the factors;
    below ``_FFT_MIN_INTERIOR`` (600) interior nodes it is folded into the
    propagator ``P = (I - G)^{-1} (I + G)`` and each step is
    ``u -> P u + h_n`` with ``h = (tau F) @ (I - G)^{-T}`` formed per block
    of forcing samples, one matvec per step.  Otherwise each step solves
    with the factors.  The two agree to round-off.  With at least
    ``_FFT_MIN_INTERIOR`` interior nodes the explicit side ``u + G u`` goes
    through the FFT of the stencil instead and ``M_plus`` is never formed
    (see the module docstring); the implicit matrix has the same entries
    either way.  The forcing is sampled at the half steps ``t_{n+1/2}``, a
    block of steps per call when it declares ``broadcasts_over_t``; a
    non-finite sample raises ``ValueError`` naming the step and its time,
    and any other non-finite state one saying it has infs or NaNs.  With
    ``return_history=True`` the full ``(n_steps+1, n)`` trajectory is
    returned instead of the final slice.
    """
    n = problem.grid.n_interior
    tau = problem.tau
    if n < _FFT_MIN_INTERIOR:
        m_minus, m_plus = build_cn_system(problem, shifts)
        explicit = m_plus.__matmul__
    else:
        op = _operator_1d(problem, shifts)
        gt = op.dense(transposed=True)  # the rows of I - G^T are I - G in Fortran order
        m_minus, g = _identity_plus(-1.0, gt, gt).T, op.fft()
        explicit = lambda u: u + g(u)
    prepare = None
    # Inverse from n_steps >= n.  Break-even of the propagator P against LU
    # solves, one BLAS thread on a 2-vCPU Xeon: 29 steps at n = 119, 83-104
    # at 400 and 208-217 at 599; from 600 on (inverse against lu_solve) 482
    # at n = 1000 and 2012 at 1999.  Conservative below ~1000 nodes, but one
    # rule fits both sides of _FFT_MIN_INTERIOR.
    if problem.n_steps < n:
        lu = lu_factor(m_minus, overwrite_a=True)
        step = lambda u, f: lu_solve(lu, explicit(u) + tau * f, check_finite=False)
    elif n >= _FFT_MIN_INTERIOR:
        inv = _inverse(m_minus)
        step = lambda u, f: inv @ (explicit(u) + tau * f)
    else:
        inv = _inverse(m_minus)
        p, inv_t = inv @ m_plus, inv.T
        step = lambda u, h: p @ u + h
        # tau scales F before the product, so an overflowing tau F gives a non-finite state
        prepare = lambda f: (tau * f) @ inv_t
    sample = _sampler(problem.forcing, (problem.grid.interior_nodes(),), (n,))
    return _march(step, problem.u0, sample, problem.n_steps, tau, return_history, prepare)


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
    ``bx = (I + kx)(I - kx)^{-1}``, ``cy = (I + ky)^T (I - ky)^{-T}`` and
    ``iy = (I - ky)^{-T}``: three products per step.  For PR this is its
    sweeps reassociated, for Douglas too since ``bx + I = 2 (I - kx)^{-1}``.
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
    make the sweep matrices identical across slices.  Each is inverted once
    to form ``bx``, ``cy`` and ``iy``, so every ``step_adi`` is three dense
    products.  ``variant`` must be one of ``ADI_VARIANTS``; both name the
    same factored scheme, which this one propagator computes.  A non-finite
    forcing sample raises ``ValueError`` naming the step and its time, and
    any other non-finite state one saying it has infs or NaNs.
    """
    if variant not in ADI_VARIANTS:
        raise ValueError(f"variant must be one of {ADI_VARIANTS}, got {variant!r}")
    kx, ky = build_adi_factors(problem, shifts_x, shifts_y)
    minus_x, minus_y = (_identity_plus(-1.0, k, np.empty_like(k, order="F")) for k in (kx, ky))
    bx = _identity_plus(1.0, kx, kx) @ _inverse(minus_x)
    iy = _inverse(minus_y).T
    cy = _identity_plus(1.0, ky, ky).T @ iy
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

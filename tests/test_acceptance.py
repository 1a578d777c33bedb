"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import binom

from wsld.coefficients import (
    DEFAULT_TUPLE,
    DegenerateTupleError,
    ShiftTuple,
    branch_weights,
    lubich_coeffs,
)
from wsld.operators import (
    Grid1D,
    apply_stencil,
    assemble_left,
    rl_exact_poly,
    table_for_grid,
)
from wsld.spectral import (
    CERTIFIED_TUPLES,
    certify,
    max_real_part_bound,
    scan_nonpositivity,
)
from wsld.solvers import (
    Problem1D,
    build_adi_factors,
    build_cn_system,
    solve_1d,
    solve_2d,
    step_adi,
)
from wsld.verification import (
    convergence_study,
    manufactured_1d,
    manufactured_2d,
    max_error,
    observed_rate,
)

TUPLE_A = DEFAULT_TUPLE
TUPLE_B = ShiftTuple((1, 2, 1, -3, 1, 2, 1, -2))

TABLE1 = {
    (TUPLE_A, 1.1): ([4.7842e-03, 2.5436e-04, 1.9662e-05, 4.1748e-06], [4.2333, 3.6934, 3.8218]),
    (TUPLE_A, 1.9): ([5.8264e-03, 5.9999e-04, 4.6242e-05, 9.7725e-06], [3.2796, 3.6977, 3.8334]),
    (TUPLE_B, 1.1): ([8.5475e-03, 4.9722e-04, 3.9559e-05, 8.6604e-06], [4.1035, 3.6518, 3.7464]),
    (TUPLE_B, 1.9): ([5.5003e-03, 5.7476e-04, 4.4490e-05, 9.4148e-06], [3.2585, 3.6914, 3.8301]),
}
TABLE1_H = [1 / 10, 1 / 20, 1 / 40, 1 / 60]

TABLE2 = {
    (TUPLE_A, 1.1, 1.1): ([8.6154e-03, 5.4115e-04, 1.2626e-04, 4.3328e-05], [3.9928, 3.5894, 3.7177]),
    (TUPLE_A, 1.8, 1.9): ([6.5211e-03, 4.4802e-04, 8.8416e-05, 2.7791e-05], [3.8635, 4.0023, 4.0229]),
    (TUPLE_B, 1.1, 1.1): ([1.0110e-02, 6.3881e-04, 1.4363e-04, 4.8431e-05], [3.9842, 3.6806, 3.7788]),
    (TUPLE_B, 1.8, 1.9): ([6.6368e-03, 4.5471e-04, 8.9704e-05, 2.8199e-05], [3.8675, 4.0032, 4.0226]),
}
TABLE2_H = [1 / 10, 1 / 20, 1 / 30, 1 / 40]


def report(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    for line in failures:
        print(f"    {line}")
    assert not failures, f"criterion {number} ({name}): {len(failures)} check(s) failed"


def test_criterion_1_table1_reproduction():
    failures = []
    for (shifts, alpha), (ref_errors, ref_rates) in TABLE1.items():
        table = convergence_study(manufactured_1d(alpha), shifts, TABLE1_H)
        errors = table.errors()
        for h, got, want in zip(TABLE1_H, errors, ref_errors):
            if abs(got - want) > 0.02 * want:
                failures.append(
                    f"{shifts} alpha={alpha} h={h:.4g}: error {got:.4e} vs {want:.4e} (>2%)"
                )
        for level, (got, want) in enumerate(zip(table.rates()[1:], ref_rates), start=1):
            if abs(got - want) > 0.05:
                failures.append(
                    f"{shifts} alpha={alpha} rate level {level}: {got:.4f} vs {want:.4f} (>0.05)"
                )
    report(1, "Table 1 reproduction, 1D Crank-Nicolson", failures)


def test_criterion_2_table2_reproduction():
    failures = []
    for (shifts, alpha, beta), (ref_errors, ref_rates) in TABLE2.items():
        table = convergence_study(manufactured_2d(alpha, beta), shifts, TABLE2_H)
        errors = table.errors()
        for h, got, want in zip(TABLE2_H, errors, ref_errors):
            if abs(got - want) > 0.03 * want:
                failures.append(
                    f"{shifts} alpha={alpha} beta={beta} dx={h:.4g}: "
                    f"error {got:.4e} vs {want:.4e} (>3%)"
                )
        for level, (got, want) in enumerate(zip(table.rates()[1:], ref_rates), start=1):
            if abs(got - want) > 0.05:
                failures.append(
                    f"{shifts} alpha={alpha} beta={beta} rate level {level}: "
                    f"{got:.4f} vs {want:.4f} (>0.05)"
                )
    report(2, "Table 2 reproduction, 2D ADI", failures)


def test_criterion_3_operator_consistency_orders():
    domain = (0.0, 2.0)
    terms = [(8 + j, math.comb(8, j) * 2.0 ** (8 - j) * (-1) ** j) for j in range(9)]
    powers = [p for p, _ in terms]
    coeffs = [c for _, c in terms]

    def u8(x):
        return x**8 * (2.0 - x) ** 8

    order_tuples = {1: (1,), 2: (1, 2), 3: (1, 2, 1, 0), 4: tuple(DEFAULT_TUPLE)}
    failures = []
    for order, shifts in order_tuples.items():
        for alpha in (1.1, 1.5, 1.9):
            errs = []
            for n_cells in (64, 128):
                grid = Grid1D(*domain, n_cells)
                x = grid.interior_nodes()
                table = table_for_grid(alpha, shifts, grid)
                numeric = apply_stencil("left", table, grid, u8(x))
                exact = rl_exact_poly("left", alpha, powers, coeffs, x, domain)
                errs.append(np.max(np.abs(numeric - exact)))
            rate = observed_rate(errs[0], errs[1], 1 / 32, 1 / 64)
            if not order - 0.5 <= rate <= order + 0.5:
                failures.append(
                    f"order {order} tuple {shifts} alpha={alpha}: rate {rate:.3f} "
                    f"outside [{order - 0.5}, {order + 0.5}]"
                )
    report(3, "operator consistency orders 1-4", failures)


def _order4_denominator(alpha: float, shifts: ShiftTuple) -> Fraction:
    """``a*bb - ab*b`` of the order-4 weights, in exact arithmetic.

    (a, b) is the leading third-order residual of the first quadruple
    ``(p, q, r, s)`` and (ab, bb) that of the second:
    ``a = rs - pq`` and ``b = 6pqrs(r + s - p - q)
    + 4 alpha (rs(r + s) - pq(p + q)) + 9 alpha (rs - pq)``.
    """
    alpha = Fraction(alpha)

    def residual(p, q, r, s):
        a = r * s - p * q
        b = (
            6 * p * q * r * s * (r + s - p - q)
            + 4 * alpha * (r * s * (r + s) - p * q * (p + q))
            + 9 * alpha * (r * s - p * q)
        )
        return a, b

    a, b = residual(*shifts.shifts[:4])
    ab, bb = residual(*shifts.shifts[4:])
    return a * bb - ab * b


def test_criterion_4_stability_certification():
    tuples = list(CERTIFIED_TUPLES) + [ShiftTuple((1, 2)), ShiftTuple((1, -2))]
    x_grid = np.linspace(0.0, np.pi, 2001)
    grid = Grid1D(0.0, 1.0, 65)
    failures = []
    degenerate = []
    for shifts in tuples:
        for alpha in (1.1, 1.5, 1.9):
            if shifts.order == 4 and _order4_denominator(alpha, shifts) == 0:
                # no fourth-order weights exist here: the library must refuse
                # rather than certify or divide by zero
                degenerate.append((shifts, alpha))
                with pytest.raises(DegenerateTupleError):
                    scan_nonpositivity(shifts, [alpha], x_grid)
                with pytest.raises(DegenerateTupleError):
                    assemble_left(alpha, shifts, grid)
                with pytest.raises(DegenerateTupleError):
                    certify(shifts, alphas=[alpha], n_interior=grid.n_interior)
                continue
            f_max = scan_nonpositivity(shifts, [alpha], x_grid).f_max
            lam = max_real_part_bound(assemble_left(alpha, shifts, grid))
            if f_max > 1e-12:
                failures.append(f"{shifts} alpha={alpha}: scan max {f_max:.3e} > 1e-12")
            if not lam < 0.0:
                failures.append(f"{shifts} alpha={alpha}: lambda_max {lam:.3e} not < 0")
    # (1,2,1,-1,1,-1,1,-2) has denominator 72 - 48*alpha: the one listed case
    if degenerate != [(ShiftTuple((1, 2, 1, -1, 1, -1, 1, -2)), 1.5)]:
        failures.append(f"expected exactly one degenerate (tuple, alpha), got {degenerate}")
    # negative control: the unshifted operator must be flagged unstable
    for alpha in (1.1, 1.5, 1.9):
        lam = max_real_part_bound(assemble_left(alpha, (0,), grid))
        if not lam >= 1.5**alpha:
            failures.append(f"unshifted alpha={alpha}: lambda_max {lam:.3e} < (3/2)^alpha")
    report(4, "stability certification of the listed tuples", failures)


def test_criterion_5_propagator_contraction():
    failures = []
    for alpha in (1.1, 1.5, 1.9):
        grid = Grid1D(0.0, 2.0, 32)
        x = grid.interior_nodes()
        for tau in (grid.h**2, 0.5):
            problem = Problem1D(
                grid=grid,
                alpha=alpha,
                d_plus=x**alpha,
                d_minus=2.0 * x**alpha,
                forcing=lambda x, t: np.zeros_like(x),
                u0=np.zeros(grid.n_interior),
                t_final=tau,
                n_steps=1,
            )
            m_minus, m_plus = build_cn_system(problem, DEFAULT_TUPLE)
            rho = np.max(np.abs(np.linalg.eigvals(np.linalg.solve(m_minus, m_plus))))
            if not rho < 1.0 - 1e-10:
                failures.append(f"1D alpha={alpha} tau={tau:.4g}: rho={rho:.12f}")
    for alpha, beta in ((1.1, 1.1), (1.8, 1.9)):
        case = manufactured_2d(alpha, beta)
        problem = case.problem(8)
        kx, ky = build_adi_factors(problem, DEFAULT_TUPLE)
        n = kx.shape[0]
        big_x = np.kron(np.eye(n), kx)
        big_y = np.kron(ky, np.eye(n))
        eye = np.eye(n * n)
        s = np.linalg.solve(
            eye - big_y, np.linalg.solve(eye - big_x, (eye + big_x) @ (eye + big_y))
        )
        rho = np.max(np.abs(np.linalg.eigvals(s)))
        if not rho < 1.0 - 1e-10:
            failures.append(f"2D alpha={alpha} beta={beta}: rho={rho:.12f}")
    report(5, "propagator spectral radius < 1", failures)


def sweep_step(u, f, tau, kx, ky, variant):
    """One ADI step as the two sweeps of ``variant``, each a dense solve."""
    solve_x = lambda r: np.linalg.solve(np.eye(kx.shape[0]) - kx, r)
    if variant == "peaceman_rachford":
        u_star = solve_x(u + u @ ky.T + 0.5 * tau * f)
        rhs = u_star + kx @ u_star + 0.5 * tau * f
    else:
        ay_u = u @ ky.T
        u_star = solve_x(u + kx @ u + 2.0 * ay_u + tau * f)
        rhs = u_star - ay_u
    return np.linalg.solve(np.eye(ky.shape[0]) - ky, rhs.T).T


def propagator(kx, ky):
    """``(bx, cy, iy)`` of ``step_adi``: (I+kx)(I-kx)^-1, (I+ky)^T (I-ky)^-T, (I-ky)^-T."""
    eye_x, eye_y = np.eye(kx.shape[0]), np.eye(ky.shape[0])
    iy = np.linalg.inv(eye_y - ky).T
    return (eye_x + kx) @ np.linalg.inv(eye_x - kx), (eye_y + ky).T @ iy, iy


def test_criterion_6_adi_variant_equivalence():
    failures = []
    rng = np.random.default_rng(2024)
    case = manufactured_2d(1.3, 1.7)
    problem = case.problem(8, n_steps=1)
    kx, ky = build_adi_factors(problem, DEFAULT_TUPLE)
    bx, cy, iy = propagator(kx, ky)
    for trial in range(3):
        u = rng.normal(size=(7, 7))
        f = rng.normal(size=(7, 7))
        stepped = step_adi(u, f, problem.tau, bx, cy, iy)
        for variant in ("peaceman_rachford", "douglas"):
            swept = sweep_step(u, f, problem.tau, kx, ky, variant)
            rel = np.max(np.abs(stepped - swept)) / np.max(np.abs(swept))
            if rel > 1e-10:
                failures.append(f"trial {trial}: step vs {variant} sweeps rel diff {rel:.3e}")

    case6 = manufactured_2d(1.2, 1.8)
    problem6 = case6.problem(6, n_steps=1)
    kx, ky = build_adi_factors(problem6, DEFAULT_TUPLE)
    n = kx.shape[0]
    big_x = np.kron(np.eye(n), kx)
    big_y = np.kron(ky, np.eye(n))
    eye = np.eye(n * n)
    u = rng.normal(size=(n, n))
    f = rng.normal(size=(n, n))
    dense = np.linalg.solve(
        (eye - big_x) @ (eye - big_y),
        (eye + big_x) @ (eye + big_y) @ u.ravel(order="F") + problem6.tau * f.ravel(order="F"),
    )
    candidates = {"step_adi": step_adi(u, f, problem6.tau, *propagator(kx, ky))}
    for variant in ("peaceman_rachford", "douglas"):
        candidates[f"{variant} sweeps"] = sweep_step(u, f, problem6.tau, kx, ky, variant)
    for name, got in candidates.items():
        rel = np.max(np.abs(got.ravel(order="F") - dense)) / np.max(np.abs(dense))
        if rel > 1e-10:
            failures.append(f"{name} vs dense factored solve: rel diff {rel:.3e}")
    report(6, "ADI variants equivalent and match dense solve", failures)


def test_criterion_7_coefficient_and_weight_identities():
    failures = []
    for alpha in (1.1, 1.3, 1.5, 1.7, 1.9):
        c = 1.5**alpha
        closed = np.array(
            [
                c,
                -c * 4 * alpha / 3,
                c * alpha * (8 * alpha - 5) / 9,
                c * 4 * alpha * (alpha - 1) * (7 - 8 * alpha) / 81,
                c * alpha * (alpha - 1) * (64 * alpha**2 - 176 * alpha + 123) / 486,
                c * 2 * alpha * (alpha - 1) * (2 - alpha) * (64 * alpha**2 - 208 * alpha + 183) / 3645,
            ]
        )
        q = lubich_coeffs(alpha, 5)
        rel = np.max(np.abs(q - closed) / np.abs(closed))
        if rel > 1e-12:
            failures.append(f"closed forms alpha={alpha}: rel {rel:.3e}")

        k = np.arange(101)
        s1 = (-1.0) ** k * binom(alpha, k)
        s3 = (-1.0 / 3.0) ** k * binom(alpha, k)
        oracle = (1.5**alpha) * np.convolve(s1, s3)[:101]
        rel = np.max(np.abs(lubich_coeffs(alpha, 100) - oracle) / np.abs(oracle))
        if rel > 1e-12:
            failures.append(f"convolution oracle alpha={alpha}: rel {rel:.3e}")

        for shifts in ((1,), (1, 2), (1, -2), (1, 2, 1, -2), TUPLE_A, TUPLE_B):
            total = sum(w for w, _ in branch_weights(alpha, shifts))
            if abs(total - 1.0) > 1e-14:
                failures.append(f"weight sum {shifts} alpha={alpha}: {total!r}")

    for alpha in (1.1, 1.5, 1.9):
        partial = abs(lubich_coeffs(alpha, 5000).sum())
        if partial >= 1e-3:
            failures.append(f"partial sum alpha={alpha}: {partial:.3e} >= 1e-3")
    report(7, "coefficient and weight identities", failures)

"""Two-dimensional fractional diffusion with ADI.

The implicit 2D operator factors into two one-dimensional ones; each run
needs exactly two LU factorizations.  Peaceman-Rachford and Douglas sweeps
solve the same factored equation, so the solver steps both through one
propagator.  Shows fourth-order spatial convergence.
"""

import time

import numpy as np

from wsld import manufactured_2d, max_error

alpha, beta = 1.8, 1.9
case = manufactured_2d(alpha, beta)

print(f"alpha = {alpha}, beta = {beta}, exact solution sin(t+1) x^4(2-x)^4 y^4(2-y)^4")
print("\nerror at t = 1 with tau = dx^2:")
previous = None
for n_cells in (10, 20, 40):
    problem = case.problem(n_cells)
    t0 = time.perf_counter()
    u, exact = case.run(problem, variant="peaceman_rachford")
    elapsed = time.perf_counter() - t0
    err = max_error(u, exact)
    rate = "" if previous is None else f"rate = {np.log(previous / err) / np.log(2):.3f}"
    print(f"  dx = 1/{n_cells // 2:<3} error = {err:.4e}  ({elapsed:.2f}s) {rate}")
    previous = err

print("\nPeaceman-Rachford and Douglas sweeps solve the same factored equation")
print("  (I - Ax)(I - Ay) u^{n+1} = (I + Ax)(I + Ay) u^n + tau f^{n+1/2},")
print("so solve_2d steps both variants through one propagator, u -> Bx (u Cy + g) + g.")

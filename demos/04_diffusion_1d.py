"""One-dimensional fractional diffusion with Crank-Nicolson stepping.

Solves the benchmark problem with exact solution sin(t+1) x^4 (2-x)^4 on
(0, 2) up to t = 1, prints the error against the exact solution, and shows
unconditional stability by taking absurdly large time steps.
"""

import numpy as np

from wsld import (
    Grid1D,
    Problem1D,
    manufactured_1d,
    max_error,
    solve_1d,
)

alpha = 1.5
case = manufactured_1d(alpha)

print(f"alpha = {alpha}, coefficients d+ = x^a, d- = 2 x^a")
p = case.problem(10, n_steps=1)
print(f"coefficient proportionality constant kappa = {np.unique(p.d_minus / p.d_plus)}")

print("\nerror at t = 1 under refinement with tau = h^2:")
for n_cells in (10, 20, 40):
    problem = case.problem(n_cells)
    err = max_error(*case.run(problem))
    print(f"  h = 1/{n_cells // 2:<3} steps = {problem.n_steps:<5} error = {err:.4e}")

print("\nstability with huge steps (zero forcing, 100 steps):")
grid = Grid1D(0.0, 2.0, 40)
x = grid.interior_nodes()
for tau in (0.5, 1.0):
    problem = Problem1D(
        grid=grid,
        alpha=alpha,
        d_plus=x**alpha,
        d_minus=2 * x**alpha,
        forcing=lambda x, t: np.zeros_like(x),
        u0=case.exact(x, 0.0),
        t_final=100 * tau,
        n_steps=100,
    )
    u = solve_1d(problem)
    print(
        f"  tau = {tau}: |u_100| / |u_0| = "
        f"{np.max(np.abs(u)) / np.max(np.abs(problem.u0)):.3e}  (bounded, no blow-up)"
    )

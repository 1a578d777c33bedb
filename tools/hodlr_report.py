"""Report what the 1D HODLR solver of a checkout builds and how well it solves.

Usage, from anywhere:

    python3 tools/hodlr_report.py ROOT [ROOT ...]

Each root's library runs in its own subprocess of this script, with
``PYTHONPATH=<root>/src``, the root's ``bench/workloads.py`` for the two
``large_cn1d`` cases, and BLAS pinned to one thread.  The cases are those
two (n_cells 2000 and 3000, 100 steps) and n_cells 20000 with 10 steps
(alpha 1.7, the second benchmark tuple).  Per case and root it prints:

- ``ranks``: the width r of every level's blocks, root level first;
- ``stacks``: the bytes of the factorization's arrays (leaves and every
  level's ``K^{-1}``, ``Vt`` and ``Y``), in MB and as a multiple of
  ``8 n^2``, the bytes of one dense ``n x n`` matrix;
- ``build``: ``solvers._hodlr`` on the case's operator (sketch, stacks and
  check), best of 5, in ms;
- ``solve``: one solve of a Gaussian vector, best of 50, in ms;
- ``dist_lu``: the largest distance of the final state to the LU
  fallback's (``solvers._hodlr`` patched to return None), over max|u|.
  It is left out (``-``) at n_cells 20000, whose dense ``I - G`` would take
  3.2 GB.

Standard library and numpy only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _best(fn, repeats: int) -> float:
    """The shortest of ``repeats`` timed calls of ``fn``, in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def _rows(root: str) -> list[dict]:
    """One report row per case, computed by the library on ``sys.path``."""
    sys.path.insert(0, os.path.join(root, "bench"))
    import workloads
    import wsld.solvers as solvers
    from wsld.coefficients import ShiftTuple
    from wsld.verification import manufactured_1d

    # (key, tuple, alpha, n_cells, n_steps, whether to compare with the LU fallback)
    cases = [(c.key, c.params["tuple"], c.params["alpha"], c.params["n_cells"],
              c.params["n_steps"], True)
             for c in sorted(workloads.build_cases("large_cn1d", "full", 0), key=lambda c: c.key)]
    cases.append((f"({workloads.TUPLE_B})/alpha=1.7/n_cells=20000/n_steps=10",
                  workloads.TUPLE_B, 1.7, 20000, 10, False))
    rows = []
    for key, text, alpha, n_cells, n_steps, dense in cases:
        shifts = ShiftTuple.of(int(s) for s in text.split(","))
        p = manufactured_1d(alpha).problem(n_cells, n_steps)
        op = solvers._operator_1d(p, shifts)
        solve = solvers._hodlr(op)
        leaves, levels = solve.args[0]
        n = p.grid.n_interior
        stacks = leaves.nbytes + sum(a.nbytes for level in levels for a in level)
        b = np.random.default_rng(0).standard_normal(n)
        row = {
            "case": key,
            "ranks": [vt.shape[-2] for _, vt, _ in levels],
            "stacks_mb": stacks / 1e6,
            "stacks_8n2": stacks / (8.0 * n * n),
            "build_ms": _best(lambda: solvers._hodlr(op), 5),
            "solve_ms": _best(lambda: solve(b), 50),
            "dist_lu": None,
        }
        del solve, leaves, levels
        if dense:
            got = solvers.solve_1d(p, shifts)
            hodlr, solvers._hodlr = solvers._hodlr, lambda op: None
            try:
                ref = solvers.solve_1d(p, shifts)
            finally:
                solvers._hodlr = hodlr
            row["dist_lu"] = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
        rows.append(row)
    return rows


def _run(root: str) -> list[dict]:
    """The report rows of ``root``, from a subprocess that imports its library."""
    root = os.path.abspath(root)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **dict.fromkeys(_THREADS, "1"))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit", root],
                          cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"hodlr_report: the run in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        print(json.dumps(_rows(argv[1])))
        return 0
    if not argv or argv[0].startswith("-"):
        sys.exit("usage: python3 tools/hodlr_report.py ROOT [ROOT ...]")
    for root in argv:
        print(root)
        for row in _run(root):
            dist = "-" if row["dist_lu"] is None else f"{row['dist_lu']:.2g}"
            print(f"  {row['case']}\n    ranks {row['ranks']}  "
                  f"stacks {row['stacks_mb']:.1f} MB = {row['stacks_8n2']:.3f} x 8n^2  "
                  f"build {row['build_ms']:.1f} ms  solve {row['solve_ms']:.3f} ms  "
                  f"dist_lu {dist}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

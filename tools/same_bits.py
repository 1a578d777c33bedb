"""Check that two checkouts compute the same outputs, bit for bit.

Usage, from anywhere:

    python3 tools/same_bits.py PARENT_ROOT CHANGE_ROOT

Each root's library runs in its own subprocess of this script, with
``PYTHONPATH=<root>/src``, the root's ``bench/workloads.py`` for the
benchmark cases, and BLAS pinned to one thread.  Each subprocess computes
the groups below and returns one sha256 per group, taken over the int64
views of every float (and the UTF-8 bytes of every string) in a fixed
order:

- ``table1``: the Table 1 rows (h, tau, error, rate) of both benchmark
  tuples at alpha 1.1 and 1.9, h = 1/10 to 1/60;
- ``table2``: the rows of the four Table 2 blocks;
- ``large_cn1d``: both final states of that workload;
- ``small_1d``: ``manufactured_1d(1.5)`` at n_cells 40, a 30-step history
  and the final states after 20, 45 and 400 steps (LU solves, the stepped
  and the block-reduced propagator);
- ``hodlr_fallback``: n_cells 700 and 20 steps with ``solvers._hodlr``
  patched to return None, so the run falls back to LU;
- ``certify_sweep``: the 133 reports of that workload (shifts, alpha,
  f_max, lambda_max_sym, verdict), a ``DegenerateTupleError`` recorded by
  its message.

Prints ``group parent change same|DIFFERS`` per group and exits 1, naming
each group that differs, when any does.  Under a group that differs it also
prints the largest absolute and relative difference between the two sides'
floats, taken entry by entry in digest order (relative to the parent's
entry; NaN against NaN counts as equal), or that the float counts differ,
so a change whose outputs move by round-off can state its bound.  Standard
library and numpy only.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _digest(items) -> str:
    """sha256 over ``items``: strings as UTF-8, anything else as float64 bits."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, str):
            h.update(b"s%d:" % len(item) + item.encode())
        else:
            a = np.ascontiguousarray(item, dtype=np.float64)
            h.update(b"f%d:" % a.size + a.view(np.int64).tobytes())
    return h.hexdigest()


def _floats(items) -> list[float]:
    """Every float of ``items`` in digest order; strings are left out."""
    return [v for item in items if not isinstance(item, str)
            for v in np.ravel(np.asarray(item, dtype=np.float64)).tolist()]


def _differences(parent: list[float], change: list[float]) -> str:
    """The largest absolute and relative entrywise difference of two float lists."""
    if len(parent) != len(change):
        return f"float counts differ: {len(parent)} against {len(change)}"
    p, c = np.array(parent), np.array(change)
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.abs(c - p)
        diff[(p == c) | (np.isnan(p) & np.isnan(c))] = 0.0
        diff[np.isnan(diff)] = np.inf  # a NaN on one side only
        rel = np.where(diff == 0.0, 0.0, diff / np.abs(p))
    return (f"max abs diff {diff.max(initial=0.0):.3g}, "
            f"max rel diff {rel.max(initial=0.0):.3g} over {len(p)} floats")


def _groups(root: str) -> dict[str, list]:
    """Every group's items, computed by the library on ``sys.path``."""
    sys.path.insert(0, os.path.join(root, "bench"))
    import workloads
    import wsld.solvers as solvers
    import wsld.spectral as spectral
    import wsld.verification as verification
    from wsld.coefficients import DEFAULT_TUPLE, DegenerateTupleError, ShiftTuple

    def cases(workload):
        return sorted(workloads.build_cases(workload, "full", 0), key=lambda c: c.key)

    def shifts(text):
        return ShiftTuple.of(int(s) for s in text.split(","))

    def rows(case, manufactured, **kwargs):
        hs = [float(Fraction(h)) for h in case.params["h"]]
        table = verification.convergence_study(
            manufactured, shifts(case.params["tuple"]), hs, **kwargs
        )
        return [float("nan") if v is None else v for row in table.rows for v in row]

    out = {}
    out["table1"] = [
        rows(c, verification.manufactured_1d(c.params["alpha"])) for c in cases("table1_cn1d")
    ]
    out["table2"] = [
        rows(c, verification.manufactured_2d(c.params["alpha"], c.params["beta"]),
             variant=c.params["variant"])
        for c in cases("table2_adi2d")
    ]
    out["large_cn1d"] = [
        solvers.solve_1d(
            verification.manufactured_1d(c.params["alpha"]).problem(
                c.params["n_cells"], c.params["n_steps"]),
            shifts(c.params["tuple"]),
        )
        for c in cases("large_cn1d")
    ]
    small = verification.manufactured_1d(1.5)
    out["small_1d"] = (
        [solvers.solve_1d(small.problem(40, 30), DEFAULT_TUPLE, return_history=True)]
        + [solvers.solve_1d(small.problem(40, n), DEFAULT_TUPLE) for n in (20, 45, 400)]
    )
    hodlr, solvers._hodlr = solvers._hodlr, lambda op: None
    try:
        out["hodlr_fallback"] = [solvers.solve_1d(small.problem(700, 20))]
    finally:
        solvers._hodlr = hodlr
    reports = []
    for c in cases("certify_sweep"):
        try:
            r = spectral.certify(c.params["tuple"], alphas=[c.params["alpha"]],
                                 n_interior=c.params["n_interior"])
        except DegenerateTupleError as exc:
            reports.append(f"DegenerateTupleError: {exc}")
            continue
        reports += [repr(tuple(r.shifts)), [r.alpha, r.f_max, r.lambda_max_sym], r.verdict]
    out["certify_sweep"] = reports
    return out


def _run(root: str) -> dict[str, tuple[str, list[float]]]:
    """Each group's digest and floats in ``root``, from a subprocess that
    imports its library."""
    root = os.path.abspath(root)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **dict.fromkeys(_THREADS, "1"))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit", root],
                          cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"same_bits: the run in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        groups = _groups(argv[1])
        print(json.dumps({g: (_digest(items), _floats(items)) for g, items in groups.items()}))
        return 0
    if len(argv) != 2:
        sys.exit("usage: python3 tools/same_bits.py PARENT_ROOT CHANGE_ROOT")
    parent, change = (_run(root) for root in argv)
    differ = [g for g in parent if parent[g][0] != change[g][0]]
    for g in parent:
        print(f"{g}  {parent[g][0]}  {change[g][0]}  {'DIFFERS' if g in differ else 'same'}")
        if g in differ:
            print(f"    {_differences(parent[g][1], change[g][1])}")
    if differ:
        print(f"differs: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

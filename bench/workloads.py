"""The four benchmark workloads: cases, how one case is run, and its checks.

Every workload is a closed loop: one caller in one process, each call
waiting for the previous one.  A case is one call into the library; it
yields one or more operations (one solve per refinement level, or one
certification), each with an id and its observed outputs.  Observations
are compared with the reference values recorded at the seed commit in
``reference.json``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import wsld.cli as cli
import wsld.solvers as solvers
import wsld.spectral as spectral
import wsld.verification as verification
from wsld.coefficients import DegenerateTupleError, ShiftTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

TUPLE_A = "1,2,1,0,1,2,1,-2"
TUPLE_B = "1,2,1,-3,1,2,1,-2"

# Allowed distance from the seed's outputs, as (absolute, relative) slack.
# Dense LU with 1 or 2 BLAS threads moves max_error by ~3e-15 at
# n_cells = 3000 and lambda_max_sym by less; the slack sits four orders of
# magnitude above that and three below the smallest reported max_error.
# A rate moves by at most ~2 * (1e-10 / 4e-6) / ln(1.5) ~ 1.2e-4 when the
# errors move by 1e-10, so rates get 1e-3.
ROUNDOFF = {
    "max_error": (1e-10, 1e-9),
    "rate": (1e-3, 0.0),
    "lambda_max_sym": (1e-10, 1e-9),
}

CERTIFY_ALPHAS = tuple(round(1.0 + 0.05 * k, 2) for k in range(1, 20))

# Sizes per profile.  "full" is what the benchmark measures; "tiny" is for
# the smoke test and for warming up lazy imports before timing.
SIZES = {
    "table1_cn1d": {"full": ["1/10", "1/20", "1/40", "1/60"], "tiny": ["1/10", "1/20"]},
    "table2_adi2d": {"full": ["1/10", "1/20", "1/30", "1/40"], "tiny": ["1/10", "1/20"]},
    "large_cn1d": {"full": {"n_steps": 100, "n_cells": (2000, 3000)},
                   "tiny": {"n_steps": 10, "n_cells": (48, 64)}},
    "certify_sweep": {"full": 400, "tiny": 32},
}

# Entry points each workload must pass through; a traced run flags any of
# them that reads zero calls.
PATHS = {
    "table1_cn1d": (
        "cli.main", "verification.convergence_study", "verification.forcing",
        "operators.rl_exact_poly", "operators.assemble_left", "solvers.solve_1d",
        "solvers.build_cn_system", "solvers.lu_factor", "solvers.lu_solve",
        "coefficients.stencil_coeffs", "coefficients.lubich_coeffs",
    ),
    "table2_adi2d": (
        "verification.convergence_study", "verification.forcing",
        "operators.rl_exact_poly", "operators.assemble_left", "solvers.solve_2d",
        "solvers.build_adi_factors", "solvers.step_adi", "solvers.lu_factor",
        "solvers.lu_solve", "coefficients.stencil_coeffs", "coefficients.lubich_coeffs",
    ),
    "large_cn1d": (
        "verification.forcing", "operators.rl_exact_poly", "operators.assemble_left",
        "solvers.solve_1d", "solvers.build_cn_system", "solvers.lu_factor",
        "solvers.lu_solve", "coefficients.stencil_coeffs", "coefficients.lubich_coeffs",
    ),
    "certify_sweep": (
        "spectral.certify", "spectral.scan_nonpositivity", "spectral.max_real_part_bound",
        "operators.assemble_left", "coefficients.stencil_coeffs",
        "coefficients.lubich_coeffs",
    ),
}

WORKLOADS = tuple(PATHS)


@dataclass(frozen=True)
class Case:
    workload: str
    key: str  # prefix of the ids of the case's operations
    params: dict


def build_cases(workload: str, size: str, seed: int) -> list[Case]:
    """The workload's cases at ``size``, in an order shuffled by ``seed``."""
    sizes = SIZES[workload][size]
    if workload == "table1_cn1d":
        cases = [
            Case(workload, f"{workload}/({t})/alpha={a}", {"tuple": t, "alpha": a, "h": sizes})
            for t in (TUPLE_A, TUPLE_B)
            for a in (1.1, 1.9)
        ]
    elif workload == "table2_adi2d":
        blocks = [
            (TUPLE_A, 1.1, 1.1, "peaceman_rachford"),
            (TUPLE_A, 1.8, 1.9, "douglas"),
            (TUPLE_B, 1.1, 1.1, "douglas"),
            (TUPLE_B, 1.8, 1.9, "peaceman_rachford"),
        ]
        cases = [
            Case(workload, f"{workload}/({t})/alpha={a},beta={b}/{v}",
                 {"tuple": t, "alpha": a, "beta": b, "variant": v, "h": sizes})
            for t, a, b, v in blocks
        ]
    elif workload == "large_cn1d":
        n_small, n_large = sizes["n_cells"]
        cases = [
            Case(workload, f"{workload}/({t})/alpha={a}/n_cells={n}/n_steps={sizes['n_steps']}",
                 {"tuple": t, "alpha": a, "n_cells": n, "n_steps": sizes["n_steps"]})
            for t, a, n in ((TUPLE_A, 1.3, n_small), (TUPLE_B, 1.7, n_large))
        ]
    elif workload == "certify_sweep":
        cases = [
            Case(workload, f"{workload}/{t}/alpha={a}/n={sizes}",
                 {"tuple": t, "alpha": a, "n_interior": sizes})
            for t in spectral.CERTIFIED_TUPLES
            for a in CERTIFY_ALPHAS
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(cases)
    return cases


def _level_id(case: Case, h: str) -> str:
    return f"{case.key}/h={h}"


def _table_observations(case: Case, rows) -> list[tuple[str, dict]]:
    if len(rows) != len(case.params["h"]):
        raise RuntimeError(f"expected {len(case.params['h'])} levels, got {len(rows)}")
    return [
        (_level_id(case, h), {"max_error": err, "rate": rate})
        for h, (err, rate) in zip(case.params["h"], rows)
    ]


def _run_table1(case: Case, scratch_dir: str) -> list[tuple[str, dict]]:
    out = os.path.join(scratch_dir, "converge.csv")
    argv = [
        "converge", "--dim", "1", "--alpha", repr(case.params["alpha"]),
        "--tuple", case.params["tuple"], "--h-list", ",".join(case.params["h"]),
        "--out", out,
    ]
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"wsld converge exited with code {code}")
    with open(out, encoding="utf-8") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        rows = [
            (float(r["max_error"]), float(r["rate"]) if r["rate"] else None) for r in reader
        ]
    return _table_observations(case, rows)


def _run_table2(case: Case, scratch_dir: str) -> list[tuple[str, dict]]:
    p = case.params
    table = verification.convergence_study(
        verification.manufactured_2d(p["alpha"], p["beta"]),
        ShiftTuple.of(int(s) for s in p["tuple"].split(",")),
        [float(Fraction(h)) for h in p["h"]],
        variant=p["variant"],
    )
    return _table_observations(case, [(err, rate) for _, _, err, rate in table.rows])


def _run_large(case: Case, scratch_dir: str) -> list[tuple[str, dict]]:
    p = case.params
    manufactured = verification.manufactured_1d(p["alpha"])
    problem = manufactured.problem(p["n_cells"], p["n_steps"])
    u = solvers.solve_1d(problem, ShiftTuple.of(int(s) for s in p["tuple"].split(",")))
    exact = manufactured.exact(problem.grid.interior_nodes(), manufactured.t_final)
    return [(case.key, {"max_error": verification.max_error(u, exact)})]


def _run_certify(case: Case, scratch_dir: str) -> list[tuple[str, dict]]:
    p = case.params
    try:
        report = spectral.certify(p["tuple"], alphas=[p["alpha"]], n_interior=p["n_interior"])
    except DegenerateTupleError:
        return [(case.key, {"raises": "DegenerateTupleError"})]
    return [(case.key, {"verdict": report.verdict, "lambda_max_sym": report.lambda_max_sym})]


_RUNNERS = {
    "table1_cn1d": _run_table1,
    "table2_adi2d": _run_table2,
    "large_cn1d": _run_large,
    "certify_sweep": _run_certify,
}


def _expected_ids(case: Case) -> list[str]:
    if case.workload in ("table1_cn1d", "table2_adi2d"):
        return [_level_id(case, h) for h in case.params["h"]]
    return [case.key]


def run_case(case: Case, scratch_dir: str) -> list[tuple[str, dict]]:
    """Observations of every operation of one case.

    An unexpected exception is itself the observation of each operation the
    case should have produced, so it never matches a reference.
    """
    try:
        return _RUNNERS[case.workload](case, scratch_dir)
    except Exception as exc:  # one failed case must not end the run
        error = {"raises": f"{type(exc).__name__}: {exc}"}
        return [(op_id, error) for op_id in _expected_ids(case)]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def mismatch(observed: dict, expected: dict | None) -> str | None:
    """Why an observation fails its reference, or None when it passes."""
    if expected is None:
        return "no reference value"
    if set(observed) != set(expected):
        return f"observed {observed} but expected {expected}"
    for key, got in observed.items():
        want = expected[key]
        if isinstance(got, float) and not math.isfinite(got):
            return f"{key} is not finite"
        if key in ROUNDOFF and got is not None and want is not None:
            abs_tol, rel_tol = ROUNDOFF[key]
            if abs(got - want) > abs_tol + rel_tol * abs(want):
                return f"{key} = {got!r}, reference {want!r}"
        elif got != want:
            return f"{key} = {got!r}, reference {want!r}"
    return None


@dataclass
class PassResult:
    attempted: int
    failures: list[str]
    seconds: float  # wall time of the library calls alone


def run_pass(cases: list[Case], reference: dict, scratch_dir: str, between=None) -> PassResult:
    """Run every case once, in order, and check each operation.

    ``between``, when given, is called before each case, outside the timing.
    """
    attempted = 0
    failures = []
    seconds = 0.0
    for case in cases:
        if between is not None:
            between()
        start = time.perf_counter()
        observations = run_case(case, scratch_dir)
        seconds += time.perf_counter() - start
        for op_id, observed in observations:
            attempted += 1
            why = mismatch(observed, reference.get(op_id))
            if why is not None:
                failures.append(f"{op_id}: {why}")
    return PassResult(attempted, failures, seconds)

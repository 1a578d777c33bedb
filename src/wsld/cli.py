"""Command-line front end.

Subcommands: ``coeffs``, ``spectrum``, ``certify``, ``solve1d``, ``solve2d``,
``converge``.  Parameters come from flags, optionally preloaded from a flat
``key = value`` config file (flags override the file).  All tabular output
is CSV with a config-hash comment line, written atomically; identical
configurations produce byte-identical files.

Exit codes: 0 success, 2 config-error, 3 numeric-error, 4 io-error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from .coefficients import (
    DEFAULT_TUPLE,
    ShiftTuple,
    grunwald_coeffs,
    lubich_coeffs,
    stencil_coeffs,
)
from .spectral import certify as spectral_certify
from .spectral import generating_function
from .verification import convergence_study, manufactured_1d, manufactured_2d, max_error
from .solvers import solve_1d, solve_2d

__all__ = ["main"]

# order -> default shift tuple when only --order is given
_DEFAULT_BY_ORDER = {
    1: ShiftTuple((1,)),
    2: ShiftTuple((1, 2)),
    3: ShiftTuple((1, 2, 1, -2)),
    4: DEFAULT_TUPLE,
}

_UNITS_COMMENT = (
    "units: x,y,h in domain coordinates; t,tau in time units; other columns dimensionless"
)


class ConfigError(ValueError):
    pass


def _parse_tuple(text: str) -> ShiftTuple:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad shift tuple {text!r}: {exc}") from exc
    try:
        return ShiftTuple(parts)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_number(text: str) -> float:
    """Accept decimals and fractions like 1/20."""
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad number {text!r}") from exc


def _parse_float_list(text: str) -> list[float]:
    return [_parse_number(p) for p in text.split(",")]


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if not key:
                    raise ConfigError(f"{path}:{lineno}: empty key")
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return values


def _merge_config(args: argparse.Namespace) -> None:
    """Fill argparse defaults (None) from the config file, if any."""
    if not getattr(args, "config", None):
        return
    file_values = _read_config_file(args.config)
    for key, text in file_values.items():
        if not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}")
        if getattr(args, key) is None:
            setattr(args, key, text)


def _config_hash(pairs: dict) -> str:
    canonical = "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wsld-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(config: dict, header: str, rows: list[str]) -> str:
    lines = [f"# config_sha256={_config_hash(config)}", f"# {_UNITS_COMMENT}", header]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _pick_tuple(args) -> ShiftTuple:
    if args.tuple:
        return _parse_tuple(args.tuple)
    order = int(args.order) if args.order is not None else 4
    if order not in _DEFAULT_BY_ORDER:
        raise ConfigError(f"order must be 1, 2, 3 or 4, got {order}")
    return _DEFAULT_BY_ORDER[order]


def _pick_variant(args) -> str:
    name = args.adi if getattr(args, "adi", None) else "pr"
    variants = {"pr": "peaceman_rachford", "douglas": "douglas"}
    if name not in variants:
        raise ConfigError(f"adi must be 'pr' or 'douglas', got {name!r}")
    return variants[name]


def _cmd_coeffs(args) -> tuple[str, None]:
    alpha = _parse_number(args.alpha)
    k_max = int(args.k if args.k is not None else 5)
    if k_max < 0:
        raise ConfigError("--k must be nonnegative")
    st = _parse_tuple(args.tuple) if args.tuple else None
    config = {"command": "coeffs", "alpha": repr(alpha), "k": k_max, "tuple": str(st or "")}
    g = grunwald_coeffs(alpha, k_max)
    q = lubich_coeffs(alpha, k_max)
    if st is None:
        header = "k,g,q"
        rows = [f"{k},{g[k]:.12e},{q[k]:.12e}" for k in range(k_max + 1)]
    else:
        phi = stencil_coeffs(alpha, st, k_max).phi
        header = "k,g,q,phi"
        rows = [f"{k},{g[k]:.12e},{q[k]:.12e},{phi[k]:.12e}" for k in range(k_max + 1)]
    return _csv_text(config, header, rows), None


def _cmd_spectrum(args) -> tuple[str, None]:
    st = _pick_tuple(args)
    alphas = _parse_float_list(args.alpha or "1.1,1.3,1.5,1.7,1.9")
    x_points = int(args.x_points if args.x_points is not None else 2001)
    if x_points < 2:
        raise ConfigError("--x-points must be at least 2")
    config = {
        "command": "spectrum",
        "tuple": str(st),
        "alphas": ",".join(repr(a) for a in alphas),
        "x_points": x_points,
    }
    x = np.linspace(0.0, np.pi, x_points)
    rows = []
    for a in alphas:
        f = generating_function(st, a, x)
        rows.extend(f"{a:.12e},{xi:.12e},{fi:.12e}" for xi, fi in zip(x, f))
    return _csv_text(config, "alpha,x,f", rows), None


def _cmd_certify(args) -> tuple[str, str]:
    st = _pick_tuple(args)
    alphas = _parse_float_list(args.alpha or "1.1,1.5,1.9")
    n = int(args.nx or 64)
    x_points = int(args.x_points if args.x_points is not None else 2001)
    config = {
        "command": "certify",
        "tuple": str(st),
        "alphas": ",".join(repr(a) for a in alphas),
        "nx": n,
        "x_points": x_points,
    }
    rows = []
    verdicts = []
    for a in alphas:
        report = spectral_certify(st, alphas=[a], n_interior=n, x_points=x_points)
        rows.append(
            f'"{st}",{a:.12e},{report.f_max:.12e},{report.lambda_max_sym:.12e},{report.verdict}'
        )
        verdicts.append(report.verdict)
    if all(v == "certified_negative" for v in verdicts):
        overall = "certified_negative"
    elif any(v == "positive" for v in verdicts):
        overall = "positive"
    else:
        overall = "indeterminate"
    text = _csv_text(config, "tuple,alpha,f_max,lambda_max_sym,verdict", rows)
    return text, f"verdict: {overall}"


def _cmd_solve1d(args) -> tuple[str, str]:
    alpha = _parse_number(args.alpha)
    st = _pick_tuple(args)
    nx = int(args.nx or 20)
    t_final = _parse_number(args.t_final or "1.0")
    case = manufactured_1d(alpha)
    case.t_final = t_final
    problem = case.problem(nx, int(args.nt) if args.nt else None)
    config = {
        "command": "solve1d",
        "alpha": repr(alpha),
        "tuple": str(st),
        "nx": nx,
        "nt": problem.n_steps,
        "t_final": repr(t_final),
    }
    u = solve_1d(problem, st)
    x = problem.grid.interior_nodes()
    exact = case.exact(x, t_final)
    rows = [
        f"{xi:.12e},{ui:.12e},{ei:.12e},{abs(ui - ei):.12e}"
        for xi, ui, ei in zip(x, u, exact)
    ]
    text = _csv_text(config, "x,u_numeric,u_exact,abs_error", rows)
    return text, f"max_error: {max_error(u, exact):.12e}"


def _cmd_solve2d(args) -> tuple[str, str]:
    alpha = _parse_number(args.alpha)
    beta = _parse_number(args.beta) if args.beta else alpha
    st = _pick_tuple(args)
    nx = int(args.nx or 20)
    if args.ny and int(args.ny) != nx:
        raise ConfigError("the benchmark problem uses nx == ny")
    variant = _pick_variant(args)
    t_final = _parse_number(args.t_final or "1.0")
    case = manufactured_2d(alpha, beta)
    case.t_final = t_final
    problem = case.problem(nx, int(args.nt) if args.nt else None)
    config = {
        "command": "solve2d",
        "alpha": repr(alpha),
        "beta": repr(beta),
        "tuple": str(st),
        "nx": nx,
        "nt": problem.n_steps,
        "t_final": repr(t_final),
        "adi": variant,
    }
    u = solve_2d(problem, st, variant=variant)
    x = problem.grid_x.interior_nodes()
    y = problem.grid_y.interior_nodes()
    exact = case.exact(x[:, None], y[None, :], t_final)
    rows = []
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            rows.append(
                f"{xi:.12e},{yj:.12e},{u[i, j]:.12e},{exact[i, j]:.12e},"
                f"{abs(u[i, j] - exact[i, j]):.12e}"
            )
    text = _csv_text(config, "x,y,u_numeric,u_exact,abs_error", rows)
    return text, f"max_error: {max_error(u, exact):.12e}"


def _cmd_converge(args) -> tuple[str, None]:
    dim = int(args.dim or 1)
    if dim not in (1, 2):
        raise ConfigError("--dim must be 1 or 2")
    alpha = _parse_number(args.alpha)
    st = _pick_tuple(args)
    h_list = _parse_float_list(args.h_list or ("1/10,1/20,1/40,1/60" if dim == 1 else "1/10,1/20,1/30,1/40"))
    variant = _pick_variant(args)
    if dim == 1:
        case = manufactured_1d(alpha)
        beta = None
    else:
        beta = _parse_number(args.beta) if args.beta else alpha
        case = manufactured_2d(alpha, beta)
    config = {
        "command": "converge",
        "dim": dim,
        "alpha": repr(alpha),
        "beta": "" if beta is None else repr(beta),
        "tuple": str(st),
        "h_list": ",".join(repr(h) for h in h_list),
        "adi": variant if dim == 2 else "",
    }
    table = convergence_study(case, st, h_list, variant=variant)
    buf = io.StringIO()
    table.write_csv(buf, comments=[f"config_sha256={_config_hash(config)}", _UNITS_COMMENT])
    return buf.getvalue(), None


# subcommand -> handler returning (CSV text, summary line or None)
_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "spectrum": _cmd_spectrum,
    "certify": _cmd_certify,
    "solve1d": _cmd_solve1d,
    "solve2d": _cmd_solve2d,
    "converge": _cmd_converge,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsld",
        description="High-order fractional-derivative operators and diffusion solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--alpha", help="fractional order in (1,2); lists allowed where noted")
        p.add_argument("--beta", help="second fractional order (2D)")
        p.add_argument("--tuple", help="comma-separated integer shifts (1, 2, 4 or 8 of them)")
        p.add_argument("--order", type=int, choices=(1, 2, 3, 4), help="pick a default tuple of this order")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--config", help="flat key=value config file; flags override")

    p = sub.add_parser("coeffs", help="emit g/q (and phi) coefficient sequences")
    common(p)
    p.add_argument("--k", help="largest coefficient index (default 5)")

    p = sub.add_parser("spectrum", help="emit (alpha, x, f) generating-function samples")
    common(p)
    p.add_argument("--x-points", dest="x_points", help="scan grid size (default 2001)")

    p = sub.add_parser("certify", help="stability verdict for a shift tuple")
    common(p)
    p.add_argument("--nx", help="matrix size for the eigenvalue bound (default 64)")
    p.add_argument("--x-points", dest="x_points", help="scan grid size (default 2001)")

    p = sub.add_parser("solve1d", help="solve the 1D benchmark problem")
    common(p)
    p.add_argument("--nx", help="number of grid cells (default 20)")
    p.add_argument("--nt", help="number of time steps (default: h**-2)")
    p.add_argument("--t-final", dest="t_final", help="final time (default 1.0)")

    p = sub.add_parser("solve2d", help="solve the 2D benchmark problem (ADI)")
    common(p)
    p.add_argument("--nx", help="number of x cells (default 20)")
    p.add_argument("--ny", help="number of y cells (must equal nx)")
    p.add_argument("--nt", help="number of time steps (default: dx**-2)")
    p.add_argument("--t-final", dest="t_final", help="final time (default 1.0)")
    p.add_argument("--adi", choices=("pr", "douglas"), help="ADI variant (default pr)")

    p = sub.add_parser("converge", help="refinement study over an h sequence")
    common(p)
    p.add_argument("--dim", help="1 or 2 (default 1)")
    p.add_argument("--h-list", dest="h_list", help="comma-separated h values, fractions allowed")
    p.add_argument("--adi", choices=("pr", "douglas"), help="ADI variant for dim=2")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _merge_config(args)
        if args.command in ("coeffs", "solve1d", "solve2d", "converge") and args.alpha is None:
            raise ConfigError(f"{args.command} requires --alpha (flag or config file)")
        text, summary = _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric-error: {exc}", file=sys.stderr)
        return 3

    try:
        _write_atomic(args.out, text)
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 4

    if summary is not None:
        # keep stdout parseable when it carries the CSV itself
        print(summary, file=sys.stdout if args.out else sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

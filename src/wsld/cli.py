"""Command-line front end.

Subcommands: ``coeffs``, ``spectrum``, ``certify``, ``solve1d``, ``solve2d``,
``converge``.  argparse parses, types, defaults and checks every value.  A
flat ``key = value`` config file is read as ``--key=value`` flags placed
before the command-line ones, so it gets the same checks and explicit flags
override it.  All tabular output is CSV with a config-hash comment line,
written atomically; identical configurations produce byte-identical files.

Exit codes: 0 success, 2 config-error, 3 numeric-error, 4 io-error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
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
from .spectral import _roundoff_slack, _verdict
from .spectral import certify as spectral_certify
from .spectral import generating_function
from .verification import ManufacturedCase, convergence_study, max_error
from .verification import manufactured_1d, manufactured_2d

__all__ = ["main"]

# order -> default shift tuple when only --order is given
_DEFAULT_BY_ORDER = {
    1: ShiftTuple((1,)),
    2: ShiftTuple((1, 2)),
    3: ShiftTuple((1, 2, 1, -2)),
    4: DEFAULT_TUPLE,
}

_ADI_VARIANTS = {"pr": "peaceman_rachford", "douglas": "douglas"}

# dimension -> the h sequence of the published table (Table 1 or Table 2)
_DEFAULT_H_LIST = {1: (1 / 10, 1 / 20, 1 / 40, 1 / 60), 2: (1 / 10, 1 / 20, 1 / 30, 1 / 40)}

_UNITS_COMMENT = (
    "units: x,y,h in domain coordinates; t,tau in time units; other columns dimensionless"
)


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raise argparse's usage errors as ``ConfigError`` instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def _parse_tuple(text: str) -> ShiftTuple:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad shift tuple {text!r}: {exc}") from exc
    try:
        return ShiftTuple(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_number(text: str) -> float:
    """Accept decimals and fractions like 1/20."""
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc


def _parse_float_list(text: str) -> list[float]:
    return [_parse_number(p) for p in text.split(",")]


def _config_flags(path: str, keys: set[str]) -> list[str]:
    """Turn each ``key = value`` line of a config file into ``--key=value``.

    A key must name one of the subcommand's flags by its dest (hyphens and
    underscores both accepted), so the value goes through that flag's own
    type and choices checks.
    """
    flags = []
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
                if key not in keys:
                    raise ConfigError(f"unknown config key {key!r}")
                flags.append(f"--{key.replace('_', '-')}={value.strip()}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return flags


def _config_hash(pairs: dict) -> str:
    canonical = "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wsld-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            # name the destination, not the temp file that is gone
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _csv_text(config: dict, header: str, rows: list[str]) -> str:
    lines = [f"# config_sha256={_config_hash(config)}", f"# {_UNITS_COMMENT}", header]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _pick_tuple(args) -> ShiftTuple:
    return args.tuple or _DEFAULT_BY_ORDER[args.order]


def _cmd_coeffs(args) -> tuple[str, None]:
    alpha, k_max, st = args.alpha, args.k, args.tuple
    if k_max < 0:
        raise ConfigError("--k must be nonnegative")
    config = {"command": "coeffs", "alpha": repr(alpha), "k": k_max, "tuple": str(st or "")}
    columns = {"g": grunwald_coeffs(alpha, k_max), "q": lubich_coeffs(alpha, k_max)}
    if st is not None:
        columns["phi"] = stencil_coeffs(alpha, st, k_max).phi
    rows = [",".join([str(k), *(f"{c[k]:.12e}" for c in columns.values())]) for k in range(k_max + 1)]
    return _csv_text(config, ",".join(["k", *columns]), rows), None


def _scan(args) -> tuple[ShiftTuple, dict]:
    """The tuple and config of ``spectrum`` and ``certify``, after the range checks."""
    nx = getattr(args, "nx", None)  # spectrum has no --nx
    if args.x_points < 2:
        raise ConfigError("--x-points must be at least 2")
    if nx is not None and nx < 1:
        raise ConfigError("--nx must be at least 1")
    st = _pick_tuple(args)
    config = {
        "command": args.command,
        "tuple": str(st),
        "alphas": ",".join(repr(a) for a in args.alpha),
        "x_points": args.x_points,
    }
    if nx is not None:
        config["nx"] = nx
    return st, config


def _cmd_spectrum(args) -> tuple[str, None]:
    st, config = _scan(args)
    x = np.linspace(0.0, np.pi, args.x_points)
    rows = []
    for a in args.alpha:
        f = generating_function(st, a, x)
        rows.extend(f"{a:.12e},{xi:.12e},{fi:.12e}" for xi, fi in zip(x, f))
    return _csv_text(config, "alpha,x,f", rows), None


def _cmd_certify(args) -> tuple[str, str]:
    st, config = _scan(args)
    reports = [
        spectral_certify(st, alphas=[a], n_interior=args.nx, x_points=args.x_points)
        for a in args.alpha
    ]
    rows = [
        f'"{st}",{a:.12e},{r.f_max:.12e},{r.lambda_max_sym:.12e},{r.verdict}'
        for a, r in zip(args.alpha, reports)
    ]
    # the verdict certify gives over all the alphas at once
    overall = _verdict(
        max(r.f_max for r in reports),
        max(r.lambda_max_sym for r in reports),
        _roundoff_slack(st, args.alpha),
    )
    text = _csv_text(config, "tuple,alpha,f_max,lambda_max_sym,verdict", rows)
    return text, f"verdict: {overall}"


def _manufactured(args, dim: int) -> tuple[ShiftTuple, ManufacturedCase, str, dict]:
    """The tuple, the benchmark case in ``dim`` dimensions (``--beta`` defaults
    to ``--alpha``), the ADI variant and the config entries that ``solve1d``,
    ``solve2d`` and ``converge`` share."""
    st = _pick_tuple(args)
    if dim == 1:
        case = manufactured_1d(args.alpha)
    else:
        case = manufactured_2d(args.alpha, args.alpha if args.beta is None else args.beta)
    variant = _ADI_VARIANTS[getattr(args, "adi", None) or "pr"]  # solve1d has no --adi
    config = {"command": args.command, "alpha": repr(args.alpha), "tuple": str(st)}
    return st, case, variant, config


def _cmd_solve(args) -> tuple[str, str]:
    """``solve1d`` and ``solve2d``: one row per interior node, x-major in 2D."""
    dim = 1 if args.command == "solve1d" else 2
    st, case, variant, config = _manufactured(args, dim)
    case.t_final = args.t_final
    problem = case.problem(args.nx, args.nt)
    config.update(nx=args.nx, nt=problem.n_steps, t_final=repr(args.t_final))
    if dim == 2:
        config.update(beta=repr(case.beta), adi=variant)
    u, exact = case.run(problem, st, variant)
    columns = [c.ravel() for c in np.broadcast_arrays(*problem.nodes, u, exact)]
    rows = [
        ",".join(f"{v:.12e}" for v in (*nodes, ui, ei, abs(ui - ei)))
        for *nodes, ui, ei in zip(*columns)
    ]
    header = ",".join(("x", "y")[:dim]) + ",u_numeric,u_exact,abs_error"
    return _csv_text(config, header, rows), f"max_error: {max_error(u, exact):.12e}"


def _cmd_converge(args) -> tuple[str, None]:
    dim = args.dim
    if dim == 1 and (args.beta is not None or args.adi is not None):
        raise ConfigError("--beta and --adi apply only to --dim 2")
    st, case, variant, config = _manufactured(args, dim)
    h_list = args.h_list or _DEFAULT_H_LIST[dim]
    config.update(
        dim=dim,
        beta="" if case.beta is None else repr(case.beta),
        h_list=",".join(repr(h) for h in h_list),
        adi=variant if dim == 2 else "",
    )
    table = convergence_study(case, st, h_list, variant=variant)
    # the tuple field contains commas, so it is always quoted
    fixed = f'"{st}",{args.alpha:.12e},' + ("" if case.beta is None else f"{case.beta:.12e}")
    rows = [
        f"{fixed},{h:.12e},{tau:.12e},{err:.12e}," + ("" if rate is None else f"{rate:.12e}")
        for h, tau, err, rate in table.rows
    ]
    return _csv_text(config, "tuple,alpha,beta,h,tau,max_error,rate", rows), None


@functools.cache  # built once per process: parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wsld",
        description="High-order fractional-derivative operators and diffusion solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, handler, alphas=None, order=True):
        """Add a subcommand with --alpha, --tuple, [--order], --out and --config.

        ``handler(args)`` runs it and returns (CSV text, summary line or None).
        ``alphas`` makes --alpha a comma-separated list with that default.
        """
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if alphas is None:
            p.add_argument("--alpha", type=_parse_number, help="fractional order in (1,2)")
        else:
            p.add_argument("--alpha", type=_parse_float_list, default=alphas,
                           help=f"comma-separated orders in (1,2) (default {alphas})")
        p.add_argument("--tuple", type=_parse_tuple,
                       help="comma-separated integer shifts (1, 2, 4 or 8 of them)")
        if order:
            p.add_argument("--order", type=int, choices=(1, 2, 3, 4), default=4,
                           help="default tuple of this order when --tuple is absent (default 4)")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--config", help="flat key = value file of these flags; flags override")
        return p

    p = command("coeffs", "emit g/q (and phi) coefficient sequences", _cmd_coeffs, order=False)
    p.add_argument("--k", type=int, default=5, help="largest coefficient index (default 5)")

    p = command("spectrum", "emit (alpha, x, f) generating-function samples", _cmd_spectrum,
                "1.1,1.3,1.5,1.7,1.9")
    p.add_argument("--x-points", type=int, default=2001, help="scan grid size (default 2001)")

    p = command("certify", "stability verdict for a shift tuple", _cmd_certify, "1.1,1.5,1.9")
    p.add_argument("--nx", type=int, default=64, help="matrix size for the eigenvalue bound (default 64)")
    p.add_argument("--x-points", type=int, default=2001, help="scan grid size (default 2001)")

    solve1d = command("solve1d", "solve the 1D benchmark problem", _cmd_solve)
    solve2d = command("solve2d", "solve the 2D benchmark problem (ADI, nx cells per axis)", _cmd_solve)
    for p in (solve1d, solve2d):
        p.add_argument("--nx", type=int, default=20, help="number of cells per axis (default 20)")
        p.add_argument("--nt", type=int, help="number of time steps (default: h**-2)")
        p.add_argument("--t-final", type=_parse_number, default=1.0, help="final time (default 1.0)")

    converge = command("converge", "refinement study over an h sequence", _cmd_converge)
    converge.add_argument("--dim", type=int, choices=(1, 2), default=1, help="1 or 2 (default 1)")
    converge.add_argument("--h-list", type=_parse_float_list,
                          help="comma-separated decreasing h values, fractions allowed")
    for p in (solve2d, converge):
        p.add_argument("--beta", type=_parse_number, help="y-direction order (default: alpha)")
        p.add_argument("--adi", choices=_ADI_VARIANTS,
                       help="ADI variant for the 2D problem (default pr)")

    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; config-file lines become flags between the subcommand and argv."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    keys = set(vars(args)) - {"command", "config", "handler"}
    return parser.parse_args([argv[0], *_config_flags(args.config, keys), *argv[1:]])


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        if args.alpha is None:
            raise ConfigError(f"{args.command} requires --alpha (flag or config file)")
        text, summary = args.handler(args)
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

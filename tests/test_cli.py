import argparse
import csv
import hashlib
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from wsld.cli import _COMMANDS, _build_parser, main
from wsld.coefficients import lubich_coeffs
from wsld.spectral import certify
from wsld.verification import convergence_study, manufactured_1d, manufactured_2d

README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    comments = []
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line)
    return comments, header, rows


def run_with_config(tmp_path, argv, text):
    """Run ``argv`` with ``text`` as its config file, given right after the subcommand."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return main(argv[:1] + ["--config", str(cfg)] + argv[1:])


class TestCoeffs:
    def test_values_and_hash_comment(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        rc = main(["coeffs", "--alpha", "1.5", "--k", "5", "--out", str(out)])
        assert rc == 0
        comments, header, rows = read_csv(out)
        assert any(c.startswith("# config_sha256=") for c in comments)
        assert header == ["k", "g", "q"]
        assert len(rows) == 6
        q = lubich_coeffs(1.5, 5)
        got = np.array([float(r.split(",")[2]) for r in rows])
        np.testing.assert_allclose(got, q, rtol=1e-12)

    def test_lemma_values_via_cli(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["coeffs", "--alpha", "1.5", "--k", "5", "--out", str(out)])
        _, _, rows = read_csv(out)
        q1 = float(rows[1].split(",")[2])
        assert q1 == pytest.approx(-(1.5**1.5) * 2.0, rel=1e-12)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["coeffs", "--alpha", "1.7", "--k", "20", "--out", str(a)])
        main(["coeffs", "--alpha", "1.7", "--k", "20", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_phi_column_with_tuple(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["coeffs", "--alpha", "1.5", "--k", "8", "--tuple", "1,2", "--out", str(out)])
        _, header, rows = read_csv(out)
        assert header == ["k", "g", "q", "phi"]
        assert float(rows[0].split(",")[3]) == pytest.approx(-(1.5**1.5), rel=1e-12)

    def test_phi_below_the_branch_starts(self, tmp_path):
        # k = 2 ends before the branch of shift -2 starts at k0 = 4
        short, full = tmp_path / "short.csv", tmp_path / "full.csv"
        argv = ["coeffs", "--alpha", "1.5", "--tuple", "1,2,1,0,1,2,1,-2", "--out"]
        assert main(argv + [str(short), "--k", "2"]) == 0
        assert main(argv + [str(full), "--k", "8"]) == 0
        assert read_csv(short)[2] == read_csv(full)[2][:3]

    def test_missing_alpha_is_config_error(self, capsys):
        rc = main(["coeffs", "--k", "3"])
        assert rc == 2
        assert "config-error" in capsys.readouterr().err


class TestSpectrum:
    def test_rows_and_sign(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main([
            "spectrum", "--tuple", "1,-2", "--alpha", "1.1,1.5", "--x-points", "101",
            "--out", str(out),
        ])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["alpha", "x", "f"]
        assert len(rows) == 202
        values = np.array([float(r.split(",")[2]) for r in rows])
        assert values.max() <= 1e-12


class TestCertify:
    def test_certified_tuple(self, capsys, tmp_path):
        out = tmp_path / "cert.csv"
        rc = main([
            "certify", "--tuple", "1,2,1,0,1,2,1,-2", "--nx", "16",
            "--x-points", "501", "--out", str(out),
        ])
        assert rc == 0
        assert "verdict: certified_negative" in capsys.readouterr().out
        _, header, rows = read_csv(out)
        assert header == ["tuple", "alpha", "f_max", "lambda_max_sym", "verdict"]
        assert all(r.endswith("certified_negative") for r in rows)

    def test_unshifted_is_positive(self, capsys):
        rc = main(["certify", "--tuple", "0", "--alpha", "1.5", "--nx", "12", "--x-points", "201"])
        assert rc == 0
        # CSV occupies stdout when --out is absent, so the summary moves to stderr
        captured = capsys.readouterr()
        assert "verdict: positive" in captured.err
        assert captured.out.startswith("# config_sha256=")

    @pytest.mark.parametrize("x_points", ["1", "0"])
    def test_scan_below_two_points_is_config_error(self, x_points, capsys):
        assert main(["certify", "--nx", "8", "--x-points", x_points]) == 2
        assert capsys.readouterr().err == "config-error: --x-points must be at least 2\n"

    @pytest.mark.parametrize("nx", ["0", "-4"])
    def test_matrix_below_one_node_is_config_error(self, nx, capsys):
        assert main(["certify", "--nx", nx, "--x-points", "11"]) == 2
        assert capsys.readouterr().err == "config-error: --nx must be at least 1\n"

    @pytest.mark.parametrize(
        "shifts, verdict", [("1,2,1,0,1,2,1,-2", "certified_negative"), ("0", "positive")]
    )
    def test_summary_is_certify_over_all_alphas(self, shifts, verdict, tmp_path, capsys):
        argv = ["certify", "--tuple", shifts, "--alpha", "1.1,1.5,1.9", "--nx", "16",
                "--x-points", "201", "--out", str(tmp_path / "cert.csv")]
        assert main(argv) == 0
        st = tuple(int(s) for s in shifts.split(","))
        report = certify(st, alphas=[1.1, 1.5, 1.9], n_interior=16, x_points=201)
        assert report.verdict == verdict
        assert capsys.readouterr().out == f"verdict: {report.verdict}\n"

    def test_summary_keeps_the_round_off_slack(self, tmp_path, capsys):
        # 1.5 + 1e-13 is a rounding-noise lambda_max_sym of (1,2,1,-1,1,-1,1,-2)
        out = tmp_path / "cert.csv"
        argv = ["certify", "--tuple", "1,2,1,-1,1,-1,1,-2", "--alpha", "1.4999,1.5000000000001",
                "--nx", "400", "--x-points", "201", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "verdict: indeterminate\n"
        verdicts = [r.rsplit(",", 1)[1] for r in read_csv(out)[2]]
        assert verdicts == ["certified_negative", "indeterminate"]

    def test_matrix_not_wider_than_stencil_is_numeric_error(self, capsys):
        assert main(["certify", "--nx", "1", "--x-points", "11"]) == 3
        assert capsys.readouterr().err.startswith(
            "numeric-error: grid has 1 interior nodes; the stencil with max shift 2"
        )

    def test_degenerate_tuple_is_numeric_error(self, capsys):
        rc = main([
            "certify", "--tuple", "1,2,1,-1,1,-1,1,-2", "--alpha", "1.5",
            "--nx", "12", "--x-points", "201",
        ])
        assert rc == 3
        assert "numeric-error" in capsys.readouterr().err


class TestSolve:
    def test_solve1d_writes_solution(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        rc = main(["solve1d", "--alpha", "1.1", "--nx", "10", "--out", str(out)])
        assert rc == 0
        assert "max_error:" in capsys.readouterr().out
        _, header, rows = read_csv(out)
        assert header == ["x", "u_numeric", "u_exact", "abs_error"]
        assert len(rows) == 9

    def test_solve2d_runs(self, tmp_path, capsys):
        out = tmp_path / "u2.csv"
        rc = main([
            "solve2d", "--alpha", "1.4", "--beta", "1.6", "--nx", "8", "--nt", "4",
            "--adi", "douglas", "--out", str(out),
        ])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["x", "y", "u_numeric", "u_exact", "abs_error"]
        assert len(rows) == 49


def rounded(a):
    """``a`` through the CSV's ``.12e`` text, elementwise."""
    return np.vectorize(lambda v: float(f"{v:.12e}"))(a)


@pytest.mark.parametrize("command", ["solve1d", "solve2d"])
def test_solve_csv_values_are_case_run(command, tmp_path, capsys):
    # alpha != beta makes u asymmetric, so a swapped axis or row order shows
    out = tmp_path / "u.csv"
    argv = [command, "--alpha", "1.3", "--nx", "9", "--nt", "5", "--tuple", "1,2,1,-2"]
    if command == "solve1d":
        case, variant = manufactured_1d(1.3), "peaceman_rachford"
    else:
        argv += ["--beta", "1.8", "--adi", "douglas"]
        case, variant = manufactured_2d(1.3, 1.8), "douglas"
    assert main(argv + ["--out", str(out)]) == 0
    problem = case.problem(9, 5)
    u, exact = case.run(problem, (1, 2, 1, -2), variant)
    assert capsys.readouterr().out == f"max_error: {np.max(np.abs(u - exact)):.12e}\n"
    if command == "solve1d":
        nodes = [problem.grid.interior_nodes()]
    else:
        x, y = problem.grid_x.interior_nodes(), problem.grid_y.interior_nodes()
        nodes = [np.repeat(x, len(y)), np.tile(y, len(x))]  # x-major: y varies fastest
    expected = np.column_stack([*nodes, u.ravel(), exact.ravel(), np.abs(u - exact).ravel()])
    _, header, rows = read_csv(out)
    assert len(header) == expected.shape[1]
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
    np.testing.assert_array_equal(parsed, rounded(expected))


@pytest.mark.parametrize("argv", [
    ["solve1d", "--alpha", "1.5", "--nx", "2", "--nt", "1"],
    ["solve1d", "--alpha", "1.5", "--nx", "3", "--nt", "1"],
    ["solve2d", "--alpha", "1.5", "--nx", "3", "--nt", "1"],
    ["converge", "--alpha", "1.5", "--h-list", "1,2/3"],
])
def test_grid_not_wider_than_stencil_is_numeric_error(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric-error: grid has \d interior nodes; the stencil with max shift 2 .*\n", err)


@pytest.mark.parametrize("t_final", ["inf", "nan", "-1"])
@pytest.mark.parametrize("command", ["solve1d", "solve2d"])
def test_bad_t_final_is_numeric_error(command, t_final, capsys):
    assert main([command, "--alpha", "1.5", "--nx", "8", "--t-final", t_final]) == 3
    assert capsys.readouterr().err == "numeric-error: t_final must be finite and nonnegative\n"


@pytest.mark.parametrize(
    "flags", [["--t-final", "1e300"], ["--t-final", "1e308"], ["--nt", str(2**53 + 1)]],
    ids=["t-final", "t-final-overflow", "nt"],
)
@pytest.mark.parametrize("command", ["solve1d", "solve2d"])
def test_unrepresentable_step_count_is_numeric_error(command, flags, capsys):
    # refused while building the problem, before any step
    assert main([command, "--alpha", "1.5", "--nx", "8", *flags]) == 3
    assert capsys.readouterr().err == "numeric-error: n_steps must be at most 2**53\n"


class TestConverge:
    @pytest.mark.parametrize("flags", [["--beta", "1.9"], ["--adi", "pr"], ["--adi", "douglas"]])
    def test_dim1_rejects_2d_flags(self, flags, capsys):
        argv = ["converge", "--alpha", "1.5", "--dim", "1", "--h-list", "1/2,1/4"]
        assert main(argv + flags) == 2
        assert capsys.readouterr().err == "config-error: --beta and --adi apply only to --dim 2\n"

    def test_dim1_rejects_2d_config_key(self, tmp_path, capsys):
        argv = ["converge", "--alpha", "1.5", "--h-list", "1/2,1/4"]
        assert run_with_config(tmp_path, argv, "adi = pr\n") == 2
        assert capsys.readouterr().err.startswith("config-error: ")

    def test_dim2_adi_default_is_pr(self, tmp_path):
        argv = ["converge", "--alpha", "1.5", "--dim", "2", "--h-list", "1/2,1/4", "--out"]
        assert main(argv + [str(tmp_path / "a.csv")]) == 0
        assert main(argv + [str(tmp_path / "b.csv"), "--adi", "pr"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_matches_published_row(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main([
            "converge", "--dim", "1", "--alpha", "1.1",
            "--tuple", "1,2,1,0,1,2,1,-2", "--h-list", "1/10,1/20", "--out", str(out),
        ])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["tuple", "alpha", "beta", "h", "tau", "max_error", "rate"]
        errors = [float(r.rsplit(",", 3)[2]) for r in rows]
        assert errors[0] == pytest.approx(4.7842e-03, rel=0.02)
        assert errors[1] == pytest.approx(2.5436e-04, rel=0.02)
        rate = float(rows[1].rsplit(",", 1)[1])
        assert rate == pytest.approx(4.2333, abs=0.05)

    def test_fraction_h_list_equivalent_to_decimal(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["converge", "--dim", "1", "--alpha", "1.5", "--h-list", "1/10,1/20", "--out", str(a)])
        main(["converge", "--dim", "1", "--alpha", "1.5", "--h-list", "0.1,0.05", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_converge_csv_rows_match_study(dim, tmp_path):
    out = tmp_path / "conv.csv"
    argv = ["converge", "--dim", str(dim), "--alpha", "1.4", "--tuple", "1,2", "--h-list", "1/4,1/8"]
    if dim == 2:
        argv += ["--beta", "1.6"]
    assert main(argv + ["--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["tuple", "alpha", "beta", "h", "tau", "max_error", "rate"]
    case = manufactured_1d(1.4) if dim == 1 else manufactured_2d(1.4, 1.6)
    study = convergence_study(case, (1, 2), [1 / 4, 1 / 8]).rows
    assert len(rows) == len(study)
    beta = "" if dim == 1 else f"{1.6:.12e}"
    for row, (h, tau, err, rate) in zip(rows, study):
        # the tuple field holds commas, so it must be quoted
        assert row.startswith('"(1,2)",')
        rate_text = "" if rate is None else f"{rate:.12e}"
        expected = ["(1,2)", f"{1.4:.12e}", beta, f"{h:.12e}", f"{tau:.12e}", f"{err:.12e}", rate_text]
        assert next(csv.reader([row])) == expected
    assert study[0][3] is None and rows[0].endswith(",")


class TestConfigFile:
    def test_file_supplies_values_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.5\nk = 3\n# comment line\n")
        out_file = tmp_path / "f.csv"
        out_flag = tmp_path / "g.csv"
        rc = main(["coeffs", "--config", str(cfg), "--out", str(out_file)])
        assert rc == 0
        _, _, rows = read_csv(out_file)
        assert len(rows) == 4
        rc = main(["coeffs", "--config", str(cfg), "--k", "6", "--out", str(out_flag)])
        assert rc == 0
        _, _, rows = read_csv(out_flag)
        assert len(rows) == 7

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 12\n")
        rc = main(["coeffs", "--alpha", "1.5", "--config", str(cfg)])
        assert rc == 2
        assert "config-error" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        for line, reason in [("alpha 1.5", "expected 'key = value'"), (" = 3", "empty key")]:
            assert run_with_config(tmp_path, ["coeffs", "--alpha", "1.5"], line + "\n") == 2
            assert capsys.readouterr().err == f"config-error: {tmp_path / 'run.cfg'}:1: {reason}\n"

    def test_missing_file_rejected(self, tmp_path):
        assert main(["coeffs", "--alpha", "1.5", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("key", ["command", "config", "ny", "beta"])
    def test_key_must_be_a_flag_of_the_subcommand(self, key, tmp_path, capsys):
        argv = ["coeffs", "--alpha", "1.5"] if key != "ny" else ["solve2d", "--alpha", "1.5"]
        assert run_with_config(tmp_path, argv, f"{key} = 6\n") == 2
        assert capsys.readouterr().err == f"config-error: unknown config key {key!r}\n"

    @pytest.mark.parametrize("key,value,argv", [
        ("adi", "foo", ["solve2d", "--alpha", "1.5", "--nx", "4", "--nt", "2"]),
        ("order", "7", ["spectrum", "--x-points", "3"]),
    ])
    def test_line_checked_like_flag(self, key, value, argv, tmp_path, capsys):
        assert main(argv + [f"--{key}", value]) == 2
        from_flag = capsys.readouterr().err
        assert from_flag.startswith(f"config-error: argument --{key}: invalid choice: ")
        assert run_with_config(tmp_path, argv, f"{key} = {value}\n") == 2
        assert capsys.readouterr().err == from_flag

    def test_value_starting_with_dash(self, tmp_path, capsys):
        argv = ["coeffs", "--alpha", "1.5", "--k", "3"]
        assert main(argv + ["--tuple=-1,2"]) == 0
        from_flag = capsys.readouterr().out
        assert from_flag.splitlines()[2] == "k,g,q,phi"
        assert run_with_config(tmp_path, argv, "tuple = -1,2\n") == 0
        assert capsys.readouterr().out == from_flag

    def test_hyphen_and_underscore_keys(self, tmp_path, capsys):
        argv = ["spectrum", "--tuple", "1,-2", "--alpha", "1.5"]
        assert run_with_config(tmp_path, argv, "x-points = 5\n") == 0
        hyphen = capsys.readouterr().out
        assert run_with_config(tmp_path, argv, "x_points = 5\n") == 0
        assert capsys.readouterr().out == hyphen
        assert main(argv + ["--x-points", "5"]) == 0
        assert capsys.readouterr().out == hyphen


# argv, config-file text or None, the flag the error must name
MALFORMED = [
    (["solve1d", "--alpha", "1.5", "--nx", "abc"], None, "--nx"),
    (["solve1d", "--alpha", "1.5", "--nt", "1.5"], None, "--nt"),
    (["solve1d", "--alpha", "1.5", "--nt", ""], None, "--nt"),
    (["coeffs", "--alpha", "1.5", "--k", "x"], None, "--k"),
    (["spectrum", "--x-points", "x"], None, "--x-points"),
    (["converge", "--alpha", "1.5", "--dim", "x"], None, "--dim"),
    (["coeffs", "--alpha", "abc"], None, "--alpha"),
    (["coeffs", "--alpha", "1/0"], None, "--alpha"),
    (["coeffs", "--alpha", "1.5", "--tuple", "1,1"], None, "--tuple"),
    (["solve1d", "--alpha", "1.5"], "order = abc\n", "--order"),
    (["solve1d", "--alpha", "1.5"], "nx = abc\n", "--nx"),
]


@pytest.mark.parametrize(
    "argv,config,flag", MALFORMED,
    ids=[f"{a[0]} " + (c.strip() if c else " ".join(a[-2:])) for a, c, _ in MALFORMED],
)
def test_malformed_value_is_config_error(argv, config, flag, tmp_path, capsys):
    rc = main(argv) if config is None else run_with_config(tmp_path, argv, config)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config-error: argument {flag}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["solve1d", "--alpha", "1.5", "--beta", "1.9"],
    ["coeffs", "--alpha", "1.5", "--order", "2"],
    ["solve2d", "--alpha", "1.5", "--nx", "6", "--ny", "6"],
])
def test_removed_flag_is_config_error(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config-error: unrecognized arguments: ")


def test_missing_subcommand_is_config_error(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err.startswith("config-error: ")


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_help_exits_zero(command, capsys):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: wsld {command} ")


# subcommand -> the flags it reads, besides -h/--help
SUBCOMMAND_FLAGS = {
    "coeffs": {"--alpha", "--tuple", "--out", "--config", "--k"},
    "spectrum": {"--alpha", "--tuple", "--order", "--out", "--config", "--x-points"},
    "certify": {"--alpha", "--tuple", "--order", "--out", "--config", "--nx", "--x-points"},
    "solve1d": {"--alpha", "--tuple", "--order", "--out", "--config", "--nx", "--nt", "--t-final"},
    "solve2d": {
        "--alpha", "--beta", "--tuple", "--order", "--out", "--config",
        "--nx", "--nt", "--t-final", "--adi",
    },
    "converge": {
        "--alpha", "--beta", "--tuple", "--order", "--out", "--config",
        "--dim", "--h-list", "--adi",
    },
}


def test_subcommand_flags():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert declared == SUBCOMMAND_FLAGS


def readme_commands():
    """The ``wsld ...`` lines of README's "Command line" code block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("wsld ")]


def test_readme_has_command_examples():
    assert {words[1] for words in readme_commands()} == set(_COMMANDS)


@pytest.mark.parametrize("words", readme_commands(), ids=lambda w: w[1])
def test_readme_command_parses(words):
    args = _build_parser().parse_args(words[1:])
    assert args.command == words[1]


# subcommand argv -> pattern of its one summary line, or None for none
ROUTING_CASES = [
    (["coeffs", "--alpha", "1.5", "--k", "4"], None),
    (["spectrum", "--tuple", "1,-2", "--alpha", "1.5", "--x-points", "11"], None),
    (["converge", "--alpha", "1.5", "--h-list", "1/4,1/8"], None),
    (
        ["certify", "--tuple", "1,-2", "--alpha", "1.5", "--nx", "8", "--x-points", "11"],
        r"verdict: \w+",
    ),
    (["solve1d", "--alpha", "1.5", "--nx", "8", "--nt", "4"], r"max_error: \S+e[-+]\d+"),
    (["solve2d", "--alpha", "1.5", "--nx", "6", "--nt", "4"], r"max_error: \S+e[-+]\d+"),
]


@pytest.mark.parametrize("with_out", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("argv,summary", ROUTING_CASES, ids=[c[0][0] for c in ROUTING_CASES])
def test_output_routing(argv, summary, with_out, tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main(argv + (["--out", str(out)] if with_out else [])) == 0
    captured = capsys.readouterr()
    if with_out:
        csv_text, summary_text, quiet = out.read_text(), captured.out, captured.err
    else:
        csv_text, summary_text, quiet = captured.out, captured.err, ""
        assert not out.exists()
    assert csv_text.startswith("# config_sha256=")
    assert quiet == ""
    if summary is None:
        assert summary_text == ""
    else:
        assert re.fullmatch(summary + "\n", summary_text)


class TestErrorCategories:
    def test_bad_tuple_is_config_error(self, capsys):
        assert main(["coeffs", "--alpha", "1.5", "--tuple", "1,x"]) == 2
        assert "config-error" in capsys.readouterr().err

    def test_bad_alpha_is_numeric_error(self, capsys):
        rc = main(["coeffs", "--alpha", "2.5", "--k", "3"])
        assert rc == 3
        assert "numeric-error" in capsys.readouterr().err

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        # a missing directory fails in mkstemp, before any temp file exists;
        # an existing directory as the target fails the final rename, after it
        (tmp_path / "existing").mkdir()
        for out in ("no/dir/x.csv", "existing"):
            rc = main(["coeffs", "--alpha", "1.5", "--k", "3", "--out", str(tmp_path / out)])
            assert rc == 4
            assert "io-error" in capsys.readouterr().err
            assert [p.name for p in tmp_path.iterdir()] == ["existing"]
            assert not any((tmp_path / "existing").iterdir())

    def test_no_stray_temp_files(self, tmp_path):
        out = tmp_path / "z.csv"
        main(["coeffs", "--alpha", "1.5", "--k", "3", "--out", str(out)])
        assert [p.name for p in tmp_path.iterdir()] == ["z.csv"]


# One invocation per path of each handler -> (its words, exit code, sha256 of
# stdout, stderr and the --out file, each followed by a NUL).  "OUT" stands
# for a fresh --out path.  The digests pin the exact bytes that the CLI writes;
# they were recorded on x86-64 with OpenBLAS, and another BLAS may round a
# last printed digit differently.
GOLDEN = {
    "coeffs": ("coeffs --alpha 1.5 --k 6", 0,
        "9018a8ff773c9e273be498801b4a087676bece5be8caa9d2496707eabfbe4431"),
    "coeffs-phi": ("coeffs --alpha 1.7 --k 6 --tuple 1,2,1,0,1,2,1,-2", 0,
        "b60569584d6e3992ffd2542c4870732c5226fd3c722b1c29808e1f5b77607223"),
    "spectrum": ("spectrum --tuple 1,-2 --alpha 1.1,3/2 --x-points 9", 0,
        "f543b3cd4944c7eb0e925ff2c47f6747d5d40bab50ec7228938631f29e6c9d9a"),
    "certify": ("certify --order 3 --alpha 1.1,1.9 --nx 16 --x-points 33", 0,
        "b13a50404ee43a2324714dbd5d276ab5e73f644cb86f386cf66fe6eaa83dbe88"),
    "certify-out": ("certify --order 2 --alpha 1.5 --nx 12 --x-points 17 --out OUT", 0,
        "dce809933b1e692ba7a12afa33a535626f901417474282f9b76fc77a21b16435"),
    "solve1d": ("solve1d --alpha 1.5 --nx 10 --nt 8", 0,
        "3f01a69a6c8c52bcaa6cd78124b5043202517e0f35f7a42108f0f7afb5abedb5"),
    "solve2d-pr": ("solve2d --alpha 1.8 --beta 1.9 --nx 6 --nt 4", 0,
        "f2b80c0aa2badf43e5bec48d6c1496c037e91c352ab91349282648a9ce8f7188"),
    "solve2d-douglas": ("solve2d --alpha 1.5 --nx 6 --nt 4 --adi douglas --order 3", 0,
        "419180ffc8818eaff02ea4dcf432a8e8c11f7deff08650356f5390c0c4602c54"),
    "converge-1d": ("converge --alpha 1.5 --h-list 1/5,1/10", 0,
        "003638d3d9c8f932481de881628e38efbba6aa548399617443672f352c2df038"),
    "converge-2d": ("converge --dim 2 --alpha 1.8 --beta 1.9 --adi douglas --h-list 1/4,1/8 --out OUT", 0,
        "8532352c8608e3e707bbd7595eb116a1735b0ced1477cc51b9f7c887d770e9be"),
    "k-negative": ("coeffs --alpha 1.5 --k -1", 2,
        "6e6bbaef29ba71dd9213db3ab4f4d8a1261d9548c852902e651f45265f81c07f"),
    "x-points-1": ("spectrum --alpha 1.5 --x-points 1", 2,
        "d1cf05eae2b0a52c6bbdbf9da062396e5e97a55588ccfbcc4c3f80f9822e6f19"),
    "nx-0": ("certify --nx 0", 2,
        "6ba5e1a533b39291c0c955dd53a3dcd94281e0952940150df66d5a8bed536714"),
    "beta-dim-1": ("converge --alpha 1.5 --beta 1.9 --dim 1", 2,
        "31f19623a8cbab6a2eb24647800a861eb79f93e9f0d56b0a6eca9065ce1f830a"),
    "solve1d-nx-2": ("solve1d --alpha 1.5 --nx 2", 3,
        "762f89987d1309434ce3422e3bcbe765b85cfb68a3897ae52b941aca5909666e"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_output(name, tmp_path, capsys):
    words, code, digest = GOLDEN[name]
    out = tmp_path / "out.csv"
    assert main([str(out) if word == "OUT" else word for word in shlex.split(words)]) == code
    captured = capsys.readouterr()
    written = out.read_text() if out.exists() else ""
    text = "".join(part + "\0" for part in (captured.out, captured.err, written))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a correct run reports no failed operation and no missing span, that
the traced self times add up to the traced wall time, and that perturbed,
non-finite or raising outputs count as failed operations.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import workloads  # noqa: E402

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=REPO_ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["end_to_end" if trace == 0 else "per_layer"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("environment ") for line in lines)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == 0:
        assert all(value > 0 for value in metrics.values())
    else:
        assert metrics["trace.missing_spans"] == 0
        accounted = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
        accounted += metrics["trace.unattributed_s"]
        assert accounted == pytest.approx(metrics["trace.wall_s"], rel=0.02)


def test_missing_library_exits_without_result():
    """Holding only BENCHMARK.json and bench/, the command fails without a result."""
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as bare_root:
        shutil.copytree(BENCH_DIR, os.path.join(bare_root, "bench"),
                        ignore=shutil.ignore_patterns(".run-*", "__pycache__"))
        shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), bare_root)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "table1_cn1d", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=bare_root,
        )
    assert done.returncode == 2
    assert done.stdout.strip() == ""
    assert "cannot import wsld" in done.stderr


def _shift(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1e-6


def _nan(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) * np.nan


def _raise(fn):
    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    return broken


PERTURBATIONS = [
    ("table1_cn1d", "wsld.verification", "max_error", _shift),
    ("table2_adi2d", "wsld.verification", "max_error", _shift),
    ("table2_adi2d", "wsld.verification", "solve_2d", _raise),
    ("large_cn1d", "wsld.solvers", "solve_1d", _shift),
    ("large_cn1d", "wsld.solvers", "solve_1d", _nan),
    ("certify_sweep", "wsld.spectral", "max_real_part_bound", _shift),
]


@pytest.mark.parametrize("workload, module, attr, perturb", PERTURBATIONS)
def test_perturbed_output_counts_in_ops_failed(workload, module, attr, perturb, monkeypatch):
    cases = workloads.build_cases(workload, "tiny", seed=7)
    reference = workloads.load_reference()
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as scratch:
        clean = workloads.run_pass(cases, reference, scratch)
        monkeypatch.setattr(sys.modules[module], attr, perturb(getattr(sys.modules[module], attr)))
        perturbed = workloads.run_pass(cases, reference, scratch)
    assert clean.failures == []
    assert perturbed.attempted == clean.attempted
    assert perturbed.failures
    if workload == "certify_sweep":
        # the degenerate case raises before the eigenvalue bound and still passes
        assert len(perturbed.failures) == clean.attempted - 1
    else:
        assert len(perturbed.failures) == clean.attempted

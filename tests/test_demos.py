"""Smoke test: every script in demos/ and the README Quick tour run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # run from a temporary directory: demo 03 writes its CSV to the cwd
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_readme_quick_tour(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"## Quick tour\n+```python\n(.*?)```", readme, re.DOTALL).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", tour], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    verdict, error = result.stdout.split()
    assert verdict == "certified_negative"
    assert f"{float(error):.4e}" == "4.7848e-03"

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import wsld

MODULES = sorted(f"wsld.{m.name}" for m in pkgutil.iter_modules(wsld.__path__))


def test_modules_found():
    assert "wsld.operators" in MODULES and "wsld.solvers" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_are_listed():
    # every public name wsld/__init__ imports from a submodule is in its __all__
    tree = ast.parse(Path(wsld.__file__).read_text())
    unlisted = [
        f"wsld.{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not alias.name.startswith("_")
        and alias.name not in importlib.import_module(f"wsld.{node.module}").__all__
    ]
    assert unlisted == []


def loaded_by_import(modules):
    """Those of ``modules`` in ``sys.modules`` after ``import wsld`` in a fresh interpreter."""
    src = str(Path(wsld.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = f"import sys, wsld; print(sorted({set(modules)!r} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_loads_neither_scipy_fft_nor_signal():
    # the library's FFTs go through numpy.fft, which numpy already loads; an
    # eager scipy.fft or scipy.signal import would add to every start-up
    assert loaded_by_import({"scipy.fft", "scipy.signal"}) == "[]"


def test_import_leaves_out_scipy_special():
    # the exact derivatives take their Gamma values from math.gamma; importing
    # scipy.special took about an eighth of `import wsld.cli`
    assert loaded_by_import({"scipy.special"}) == "[]"

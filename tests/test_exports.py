import importlib
import os
import pkgutil
import subprocess
import sys
import types
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
    # the package republishes exactly the numerical modules' __all__ lists,
    # and the command line stays out of `import wsld`
    public = {
        name for name, obj in vars(wsld).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    listed = {
        name for module in MODULES if module != "wsld.cli"
        for name in importlib.import_module(module).__all__
    }
    assert public == listed
    assert loaded_by_import({"wsld.cli"}) == "[]"


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

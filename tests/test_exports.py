import importlib
import pkgutil

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

import ast
import importlib
import pkgutil
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

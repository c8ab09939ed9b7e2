"""Every exported name resolves, so a stale export fails here and not in a user's import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qwproj

MODULES = sorted(info.name for info in pkgutil.iter_modules(qwproj.__path__))


def package_imports():
    """(module, name) for every name ``qwproj/__init__.py`` imports from a submodule."""
    tree = ast.parse(Path(qwproj.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"qwproj.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_package_imports_resolve():
    imports = package_imports()
    assert imports
    for module, name in imports:
        source = importlib.import_module(f"qwproj.{module}")
        assert getattr(qwproj, name) is getattr(source, name, None), (module, name)

"""Every exported name resolves, so a stale export fails here and not in a user's import."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


STEP_KERNELS = {"_step_block", "_merge_images", "_coin_block"}
SOURCES = sorted(Path(qwproj.__file__).parent.glob("*.py"))


def referenced_names(path):
    """Every name a module's source refers to: bare names, attributes and
    imported names."""
    return names_in(ast.parse(path.read_text()))


def names_in(tree):
    """Every name an AST node refers to, as :func:`referenced_names` reads them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_step_kernels_stay_in_walk(path):
    # Any other module steps a walk through evolve or walk._walk_blocks, so
    # that no second stepping loop grows outside walk.
    used = STEP_KERNELS & set(referenced_names(path))
    assert used == (STEP_KERNELS if path.name == "walk.py" else set())


# The independent oracles move positions by their own code, so that the two
# engines share no stepping code.
IMAGE_ORACLES = {"_recurrence_step", "dense_unitary"}


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "spaces.py"], ids=lambda p: p.name
)
def test_images_are_built_in_spaces(path):
    # Every other hop takes a block's images from spaces._image_block, so that
    # no second image loop grows outside spaces.
    tree = ast.parse(path.read_text())
    users = {
        node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else ast.unparse(node)
        for node in tree.body
        if "apply_array" in set(names_in(node))
    }
    assert users <= IMAGE_ORACLES


def test_one_routine_projects_a_state():
    # project_state, the commutation check and the phase family all project
    # through projection._project_phases, so that the weights and the null
    # check of a projection are written once.
    users = {
        (path.name, node.name if isinstance(node, ast.FunctionDef) else ast.unparse(node))
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if "_fiber_sums" in set(names_in(node))
    }
    assert users == {("projection.py", "_project_phases")}


def test_one_reader_asks_a_space_for_its_positions():
    # A state's mapping, a window and a candidate region are all read by
    # spaces._position_block, so that which tuples are positions of a space,
    # and in what order they are stored, is decided once.
    callers = {
        (path.name, getattr(node, "name", None) or ast.unparse(node))
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if any(
            isinstance(call, ast.Call) and "contains" in set(names_in(call.func))
            for call in ast.walk(node)
        )
    }
    assert callers == {("spaces.py", "_position_block")}


def test_one_builder_turns_step_weights_into_phases():
    # The step phases exp(i*phi*sigma_c) of a walk and of a phase family come
    # from walk._phase_factors; projection._phase_table takes exp over the
    # sigma range that the weights let n steps reach.
    users = {
        (path.name, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and {"exp", "sigma_c"} <= set(names_in(node))
    }
    assert users == {("walk.py", "_phase_factors"), ("projection.py", "_phase_table")}


def test_cli_uses_public_names_only():
    # The command-line front end is a client of the library: it may refer to
    # private names it defines itself, and to dunders, but to no other.
    path = Path(qwproj.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text())
    defined = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    } | {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    private = {
        name
        for name in referenced_names(path)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    }
    assert private - defined == set()


def loaded_modules(code):
    """The modules in ``sys.modules`` after a fresh interpreter runs ``code``."""
    env = dict(os.environ)
    src = str(Path(qwproj.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return set(run.stdout.split())


def test_import_loads_neither_dataclasses_nor_logging():
    # Generating dataclass methods and importing logging each cost every CLI
    # call milliseconds of start-up; the records and log lines need neither.
    own = loaded_modules("import qwproj.cli") - loaded_modules("import numpy, argparse, json")
    assert own & {"dataclasses", "logging"} == set()


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10.
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

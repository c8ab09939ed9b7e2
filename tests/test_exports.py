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


def defined_names(module):
    """The names a submodule's top level defines itself, not imports."""
    path = Path(qwproj.__file__).parent / f"{module}.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


# Names of a lazily exported module's __all__ that the package leaves in
# the module: the tolerances are read as walk.UNITARY_TOL and the like.
NOT_REEXPORTED = {"UNITARY_TOL", "NULL_TOL", "HOMOGENEITY_TOL"}


def test_package_imports_resolve():
    # Every name the package exports, eagerly imported or looked up on first
    # use, is the object of the one submodule that defines it, and every
    # submodule is exported as itself.
    imports = package_imports()
    assert imports and {name for _, name in imports} <= set(qwproj.__all__)
    # The lazy table re-exports each of its modules' __all__, so a name added
    # there cannot be left out of the package unnoticed.
    for module in set(qwproj._EXPORTS.values()):
        listed = {name for name, owner in qwproj._EXPORTS.items() if owner == module}
        source = importlib.import_module(f"qwproj.{module}")
        assert listed == set(source.__all__) - NOT_REEXPORTED, module
    definers = {}
    for module in MODULES:
        for name in defined_names(module):
            definers.setdefault(name, []).append(module)
    for name in qwproj.__all__:
        if name in MODULES:
            assert getattr(qwproj, name) is importlib.import_module(f"qwproj.{name}")
            continue
        (module,) = definers[name]
        source = importlib.import_module(f"qwproj.{module}")
        assert getattr(qwproj, name) is getattr(source, name), (module, name)


def test_star_import_and_dir_list_every_export():
    # In a fresh interpreter, before any name has been looked up: a star
    # import binds exactly __all__, dir() lists all of it, and a submodule
    # reads as an attribute of the package alone.
    code = (
        "import qwproj\nlisted = set(dir(qwproj))\n"
        "print(qwproj.reconstruction.reconstruct is qwproj.reconstruct)\nns = {}\n"
        "exec('from qwproj import *', ns)\n"
        "print(sorted(qwproj.__all__) == sorted(set(ns) - {'__builtins__'}),"
        " listed >= set(qwproj.__all__))"
    )
    assert run_fresh(code).split() == ["True", "True", "True"]
    assert set(MODULES) - {"cli"} <= set(qwproj.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        qwproj.no_such_name


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
    # Every phase exp(i*phi*sigma), of a walk's steps, of a phase family, of
    # a projection's sites and of the commutation check's table, comes from
    # walk._phase_factors: the one call of exp, as np.exp, math.exp or
    # cmath.exp, in the package.
    def calls(node, where):
        if isinstance(node, ast.Call) and "exp" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            yield where
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        for child in ast.iter_child_nodes(node):
            yield from calls(child, where)

    sites = [
        (path.name, where)
        for path in SOURCES
        for where in calls(ast.parse(path.read_text()), None)
    ]
    assert sites == [("walk.py", "_phase_factors")]


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


def run_fresh(code):
    """The standard output of a fresh interpreter that runs ``code``."""
    env = dict(os.environ)
    src = str(Path(qwproj.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return run.stdout


def loaded_modules(code):
    """The modules in ``sys.modules`` after a fresh interpreter runs ``code``."""
    return set(run_fresh(f"{code}\nimport sys\nprint(*sys.modules)").split())


def test_import_loads_neither_dataclasses_nor_logging():
    # Generating dataclass methods and importing logging each cost every CLI
    # call milliseconds of start-up; the records and log lines need neither.
    # The CLI loads projection and reconstruction only when a command runs,
    # so they are imported here by name.
    own = loaded_modules("import qwproj.cli, qwproj.reconstruction") - loaded_modules(
        "import numpy, argparse, json"
    )
    assert own & {"dataclasses", "logging"} == set()


# Layers and standard modules that building a scenario never calls.
DEFERRED = {"qwproj.projection", "qwproj.reconstruction", "json"}


def test_building_a_scenario_loads_only_its_layers():
    # Compiling projection and reconstruction and importing json cost a fresh
    # process several ms of start-up, most of it recompiling sources where no
    # bytecode is written.
    loaded = loaded_modules(
        "from qwproj import catalog, cli, spaces\n"
        "for name in catalog.SCENARIO_NAMES:\n"
        "    for make in catalog.scenario(name).distinguished_states.values():\n"
        "        make()"
    )
    assert {"qwproj.catalog", "qwproj.cli"} <= loaded
    assert loaded & DEFERRED == set()


def test_verify_command_loads_no_reconstruction():
    loaded = loaded_modules(
        "import runpy, sys\n"
        "sys.argv = ['qwproj', 'verify', '--scenario', 'line_to_circle', '--steps', '3']\n"
        "try:\n"
        "    runpy.run_module('qwproj.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code"
    )
    assert "qwproj.projection" in loaded
    assert "qwproj.reconstruction" not in loaded


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10.
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

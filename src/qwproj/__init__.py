"""Coined discrete-time quantum walks with graph-quotient projections.

The library simulates coined walks on abstract position sets with exact
sparse support, builds quotient projections of the walking graph, produces
the induced walk on the quotient, verifies the projection/evolution
intertwining numerically, and inverts phase-decorated projection families
back to the parent state.

Importing the package loads :mod:`~qwproj.errors` and the base layer
:mod:`~qwproj.spaces` (with numpy).  Every other public name is looked up
in the module that defines it the first time it is read from the package
(PEP 562), and kept there after, so a process loads only the layers it
uses: ``from qwproj import catalog`` and building a scenario load hilbert,
walk and catalog as well, but not projection or reconstruction.
``from qwproj import *`` and ``dir(qwproj)`` still give every name, the
submodules included, and ``qwproj.projection`` still reads as an attribute
after ``import qwproj``.
"""

from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    InconsistentGrid,
    InhomogeneousCoin,
    InvalidParameter,
    InvalidPosition,
    MissingSigma,
    NotUnitary,
    NullProjection,
    QwprojError,
    SpaceMismatch,
    StateOutsideSubspace,
    SubspaceNotInvariant,
)

# spaces, which every other layer imports, comes with the package.  Its
# source is then compiled before numpy loads, and numpy's import reuses the
# compiler's scratch memory; compiled after numpy, as the catalog would
# load it, spaces.py grew a verify child's heap by 0.6 MB that glibc kept.
from .spaces import (
    BezoutPair,
    ConsistencyReport,
    Displacement,
    Position,
    PositionSpace,
    ProjectionMap,
    bezout,
    check_rho_consistency,
    circle,
    cyclic_quotient,
    displacement_apply,
    lattice_2d,
    lattice_quotient,
    line,
    llattice,
    llattice_quotient,
    reachable_window,
)

# Every other public name the package re-exports, by its module.
_EXPORTS = {
    name: module
    for module, names in {
        "hilbert": (
            "WalkState", "add", "diff_norm", "distribution_csv", "from_json_dict", "inner",
            "json_chunks", "json_text", "max_abs_difference", "norm", "position_distribution",
            "scale", "state_new", "to_json_dict",
        ),
        "walk": (
            "CoinAssignment", "StepPhase", "WalkSpec", "apply_coin", "apply_step",
            "dense_unitary", "evolve", "evolve_recurrence", "grover_coin", "hadamard_coin",
            "state_to_vector",
        ),
        "projection": (
            "CommutationReport", "HomogeneityReport", "check_coin_homogeneity",
            "induced_walk", "project_state", "verify_commutation",
        ),
        "reconstruction": (
            "phase_grid", "phase_projection_family", "plan_reconstruction", "reconstruct",
            "reconstruct_support",
        ),
        "catalog": (
            "SCENARIO_NAMES", "ScenarioDescriptor", "projected_trapped_state",
            "restrict_to_three_coin", "scenario", "trapped_state",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values())

# What a star import gave when the package imported every module eagerly:
# the error classes, every name of the table and the submodules.
__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | set(_EXPORTS) | _SUBMODULES
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule or a name of the table, imported on first use and kept
    here, so that a later read is a plain lookup."""
    from importlib import import_module

    if name in _SUBMODULES:  # importing a submodule binds it here
        return import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""Ready-made walks, quotients, and distinguished states.

Five scenarios pair a parent walk with a quotient of its walking graph:

======================  ===========================  =========================
name                    parent walk                  quotient / induced walk
======================  ===========================  =========================
grover2d_to_lazy        Grover coin on the plane     rho = x, lazy line steps
                                                     (+1, -1, 0, 0)
lattice_to_jumps        Grover coin on the plane     rho = k*x + y, line steps
                                                     (+k, -k, +1, -1)
lattice_to_doubled      Grover coin on the plane     rho = x + y, doubled line
                                                     steps (+1, -1, +1, -1)
line_to_circle          Hadamard coin on the line    rho = x mod N, circle with
                                                     twist phase N*phi
llattice_to_line        Hadamard coin on the         rho = x + y, standard line
                        alternating lattice          steps (+1, -1)
======================  ===========================  =========================

Every descriptor ships a few distinguished initial states ("origin",
"offset", "pair"; the planar Grover scenarios add "trapped_plus" and
"trapped_minus").  All of them project to nonzero states through the
scenario's quotient, which is verified when the descriptor is built,
together with a windowed consistency check of rho.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from .errors import InvalidParameter, StateOutsideSubspace, SubspaceNotInvariant
from .hilbert import WalkState, state_new
from .projection import project_state
from .spaces import (
    PositionSpace,
    ProjectionMap,
    _Record,
    _is_integer,
    check_rho_consistency,
    lattice_2d,
    lattice_quotient,
    line,
    llattice,
    llattice_quotient,
    cyclic_quotient,
)
from .walk import CoinAssignment, StepPhase, WalkSpec, grover_coin, hadamard_coin

__all__ = [
    "SCENARIO_NAMES",
    "ScenarioDescriptor",
    "trapped_state",
    "projected_trapped_state",
    "scenario",
    "restrict_to_three_coin",
]

SCENARIO_NAMES = (
    "grover2d_to_lazy",
    "lattice_to_jumps",
    "line_to_circle",
    "llattice_to_line",
    "lattice_to_doubled",
)

_INV_2SQRT2 = 1.0 / (2.0 * math.sqrt(2.0))


def trapped_state(x: int, y: int, sign: int) -> WalkState:
    """A stationary four-site eigenstate of the planar Grover walk.

    With coin order (R, L, U, D) the normalized state is

        (1/(2*sqrt(2))) * ( |x,   y  > (L + D)  +- |x,   y+1> (L + U)
                          +- |x+1, y  > (R + D)  +  |x+1, y+1> (R + U) )

    where the sign picks the member of the pair.  These states never spread:
    one walk step reproduces them up to a unimodular factor.
    """
    if sign not in (1, -1):
        raise InvalidParameter(f"sign must be +1 or -1, got {sign!r}")
    s = float(sign)
    c = _INV_2SQRT2
    return state_new(
        lattice_2d(),
        [
            ((x, y), np.array([0, 1, 0, 1]) * c),
            ((x, y + 1), np.array([0, 1, 1, 0]) * (s * c)),
            ((x + 1, y), np.array([1, 0, 0, 1]) * (s * c)),
            ((x + 1, y + 1), np.array([1, 0, 1, 0]) * c),
        ],
    )


def projected_trapped_state(kind: str, x: int, y: int, sign: int) -> WalkState:
    """The image of :func:`trapped_state` under a lattice quotient, closed form.

    ``kind`` selects the quotient: "lazy" for rho = x (two sites, with the
    L and R entries doubled or cancelled by the sign), "double_line" for
    rho = x + y (three sites).  Returned unnormalized, exactly as the fiber
    sums produce them; equal to projecting :func:`trapped_state` directly.
    """
    if sign not in (1, -1):
        raise InvalidParameter(f"sign must be +1 or -1, got {sign!r}")
    s = float(sign)
    c = _INV_2SQRT2
    if kind == "lazy":
        target = lattice_quotient(1, 0).target
        return state_new(
            target,
            [
                ((x,), np.array([0, 1 + s, s, 1]) * c),
                ((x + 1,), np.array([1 + s, 0, 1, s]) * c),
            ],
        )
    if kind == "double_line":
        target = lattice_quotient(1, 1).target
        return state_new(
            target,
            [
                ((x + y,), np.array([0, 1, 0, 1]) * c),
                ((x + y + 1,), np.array([1, 1, 1, 1]) * (s * c)),
                ((x + y + 2,), np.array([1, 0, 1, 0]) * c),
            ],
        )
    raise InvalidParameter(f"unknown projected trapped kind {kind!r}")


class ScenarioDescriptor(_Record):
    """A parent walk wired to its quotient, with named initial states."""

    name: str
    walk: WalkSpec
    pmap: ProjectionMap
    phi: float
    distinguished_states: Mapping[str, Callable[[], WalkState]]
    params: Mapping[str, object]


_GENERIC4 = np.array([1.0, 1.0j, -1.0, -1.0j]) / 2.0
_OFFSET4 = np.array([0.0, 1.0, 1.0j, 0.0]) / math.sqrt(2.0)
_GENERIC2 = np.array([1.0, 1.0j]) / math.sqrt(2.0)
_OFFSET2 = np.array([1.0, -1.0]) / math.sqrt(2.0)


def _localized(space: PositionSpace, pos, coin) -> Callable[[], WalkState]:
    return lambda: state_new(space, [(pos, coin)])


def _pair(space: PositionSpace, p0, p1, coin) -> Callable[[], WalkState]:
    inv = 1.0 / math.sqrt(2.0)
    return lambda: state_new(space, [(p0, coin * inv), (p1, coin * (1.0j * inv))])


def _default_window(space: PositionSpace):
    if space.dimension == 2:
        return [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
    return [(i,) for i in range(-8, 9)]


def _descriptor(name, walk, pmap, phi, states, params) -> ScenarioDescriptor:
    report = check_rho_consistency(pmap, _default_window(pmap.source))
    if not report.passed:
        raise InvalidParameter(
            f"scenario {name!r}: quotient fails consistency at {report.counterexample}"
        )
    for build in states.values():
        # raises NullProjection if a distinguished state cancels
        project_state(pmap, phi, build())
    return ScenarioDescriptor(name, walk, pmap, phi, states, params)


def scenario(
    name: str,
    *,
    k: int | None = None,
    n_circle: int | None = None,
    phi: float | None = None,
) -> ScenarioDescriptor:
    """Build a catalog scenario by name.

    ``k`` parameterizes lattice_to_jumps (default 2), ``n_circle`` and
    ``phi`` parameterize line_to_circle (defaults 4 and 0.0); ``phi`` also
    sets the default projection phase of any other scenario.  A ``k`` or
    ``n_circle`` that is not an integer or not read by the scenario is refused.
    """
    readers = {"k": (k, "lattice_to_jumps"), "n_circle": (n_circle, "line_to_circle")}
    for param, (value, reader) in readers.items():
        if value is not None and name != reader:
            raise InvalidParameter(f"{param} is read by {reader} only, not by {name!r}")
        if value is not None and not _is_integer(value):
            raise InvalidParameter(f"{param} must be an integer, got {value!r}")
    phi_val = 0.0 if phi is None else float(phi)
    if name in ("grover2d_to_lazy", "lattice_to_jumps", "lattice_to_doubled"):
        space = lattice_2d()
        walk = WalkSpec(space, CoinAssignment.homogeneous(grover_coin()))
        if name == "grover2d_to_lazy":
            pmap = lattice_quotient(1, 0)
            params = {"k": 1, "l": 0}
        elif name == "lattice_to_jumps":
            k_val = 2 if k is None else int(k)
            pmap = lattice_quotient(k_val, 1)
            params = {"k": k_val, "l": 1}
        else:
            pmap = lattice_quotient(1, 1)
            params = {"k": 1, "l": 1}
        states = {
            "origin": _localized(space, (0, 0), _GENERIC4),
            "offset": _localized(space, (2, -1), _OFFSET4),
            "pair": _pair(space, (0, 0), (1, 1), _GENERIC4),
            "trapped_plus": lambda: trapped_state(0, 0, +1),
            "trapped_minus": lambda: trapped_state(0, 0, -1),
        }
        return _descriptor(name, walk, pmap, phi_val, states, params)
    if name == "line_to_circle":
        n_val = 4 if n_circle is None else int(n_circle)
        space = line()
        walk = WalkSpec(space, CoinAssignment.homogeneous(hadamard_coin()))
        pmap = cyclic_quotient(n_val)
        states = {
            "origin": _localized(space, (0,), _GENERIC2),
            "offset": _localized(space, (3,), _OFFSET2),
            "pair": _pair(space, (0,), (1,), _GENERIC2),
        }
        return _descriptor(name, walk, pmap, phi_val, states, {"n": n_val})
    if name == "llattice_to_line":
        space = llattice()
        walk = WalkSpec(space, CoinAssignment.homogeneous(hadamard_coin()))
        pmap = llattice_quotient()
        states = {
            "origin": _localized(space, (0, 0), _GENERIC2),
            "offset": _localized(space, (1, 0), _OFFSET2),
            "pair": _pair(space, (0, 0), (1, 1), _GENERIC2),
        }
        return _descriptor(name, walk, pmap, phi_val, states, {})
    raise InvalidParameter(f"no scenario named {name!r}; known: {', '.join(SCENARIO_NAMES)}")


def restrict_to_three_coin(
    spec: WalkSpec, state: WalkState, tol: float = 1e-12
) -> tuple[WalkSpec, WalkState]:
    """Drop the last coin direction of a walk whose coin never uses it.

    Intended for the four-coin lazy line walk, where the two zero
    displacements make a three-dimensional coin formulation natural: when
    the coin matrix leaves the span of the first three directions invariant
    (SubspaceNotInvariant otherwise) and the state has no amplitude on the
    last direction (StateOutsideSubspace), the truncated walk evolves
    identically to the original restricted to that subspace.  The reduced
    space is named after the full one with the slice of the displacement
    family it keeps appended, ``[:3]`` for a four-direction coin.
    """
    dim = spec.coin.dimension
    if dim < 2:
        raise InvalidParameter("need at least two coin directions to restrict")
    if spec.coin.is_homogeneous:
        mats = [spec.coin.matrix]
    else:
        mats = [spec.coin.at(pos) for pos in sorted(state.support)]
    for mat in mats:
        leak = max(
            float(np.max(np.abs(mat[dim - 1, : dim - 1]))),
            float(np.max(np.abs(mat[: dim - 1, dim - 1]))),
        )
        if leak > tol:
            raise SubspaceNotInvariant(
                f"coin couples the last direction with leakage {leak:.3e}"
            )
    for pos, vec in state.support.items():
        if abs(vec[dim - 1]) > tol:
            raise StateOutsideSubspace(
                f"state has |{spec.space.labels[dim - 1]}> amplitude at {pos}"
            )

    kept = spec.space.displacements[: dim - 1]
    reduced_space = PositionSpace(
        name=f"{spec.space.name}[:{dim - 1}]",
        dimension=spec.space.dimension,
        displacements=kept,
        contains=spec.space.contains,
        positions=spec.space.positions,
    )
    if spec.coin.is_homogeneous:
        coin = CoinAssignment.homogeneous(spec.coin.matrix[: dim - 1, : dim - 1])
    else:
        source_fn = spec.coin.at
        coin = CoinAssignment.positional(
            lambda pos: source_fn(pos)[: dim - 1, : dim - 1], dim - 1
        )
    phase = None
    if spec.phase is not None:
        phase = StepPhase(
            spec.phase.phi, {d.label: spec.phase.sigma_c[d.label] for d in kept}
        )
    reduced_state = WalkState(
        reduced_space,
        {pos: np.array(vec[: dim - 1]) for pos, vec in state.support.items()},
    )
    return WalkSpec(reduced_space, coin, phase), reduced_state

"""Shared fixtures and state generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from qwproj import (
    CoinAssignment,
    ProjectionMap,
    WalkSpec,
    circle,
    grover_coin,
    hadamard_coin,
    lattice_2d,
    line,
    llattice,
    state_new,
)


def random_sparse_state(
    space, rng, points=4, radius=6, normalized=True, offset=(0, 0), zeros=0
):
    """A random finitely supported state with complex Gaussian amplitudes.

    Off the circle, positions are drawn around ``offset``; the first
    ``zeros`` points carry explicit zero vectors.
    """
    dim = space.coin_dimension
    assignments = []
    for i in range(points):
        if space.name.startswith("circle"):
            n = space.positions and len(space.positions)
            pos = (int(rng.integers(0, n)),)
        else:
            pos = tuple(
                int(c) + o
                for c, o in zip(rng.integers(-radius, radius + 1, size=space.dimension), offset)
            )
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        assignments.append((pos, vec if i >= zeros else np.zeros(dim)))
    state = state_new(space, assignments)
    if normalized:
        from qwproj import norm, scale

        total = norm(state)
        if total > 0:
            state = scale(1.0 / total, state)
    return state


def walk_zoo():
    """One walk per catalog space family, for engine cross-checks."""
    return [
        WalkSpec(lattice_2d(), CoinAssignment.homogeneous(grover_coin())),
        WalkSpec(line(), CoinAssignment.homogeneous(hadamard_coin())),
        WalkSpec(circle(4), CoinAssignment.homogeneous(hadamard_coin())),
        WalkSpec(llattice(), CoinAssignment.homogeneous(hadamard_coin())),
    ]


def identity_map(space):
    """The trivial quotient of a space by itself: a relabeling with sigma = 0."""
    return ProjectionMap(
        source=space,
        target=space,
        rho_array=lambda c: c,
        sigma_array=lambda c: 0 * c[:, 0],
        sigma_c={lbl: 0 for lbl in space.labels},
        section=lambda q: q,
        name=f"identity({space.name})",
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

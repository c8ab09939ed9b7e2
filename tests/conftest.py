"""Shared fixtures and state generators for the test suite."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from qwproj import (
    CoinAssignment,
    catalog,
    ProjectionMap,
    WalkSpec,
    circle,
    evolve,
    evolve_recurrence,
    grover_coin,
    hadamard_coin,
    lattice_2d,
    line,
    llattice,
    max_abs_difference,
    state_new,
)
from qwproj.spaces import exact_block


def on_position(action, p):
    """A block action (such as ``apply_array``, ``rho_array`` or
    ``sigma_array``) on the one position p, taken on a one-row exact block:
    the image as a tuple of Python ints, or a weight as one Python int."""
    image = action(exact_block([p], len(p)))[0]
    return tuple(image.tolist()) if isinstance(image, np.ndarray) else image


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
            pos = (int(rng.integers(0, space.size)),)
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


def haar_unitary(dim, rng):
    """A Haar-random unitary: QR of a complex Gaussian matrix with the phase
    fix Q diag(R_ii / |R_ii|) (Mezzadri, "How to generate random matrices
    from the classical compact groups", Notices AMS 54 (2007) 592)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def evolve_both(spec, psi, steps):
    """``evolve`` of psi, checked against ``evolve_recurrence``: the same
    support and amplitudes within 1e-12."""
    a = evolve(spec, psi, steps)
    b = evolve_recurrence(spec, psi, steps)
    assert set(a.support) == set(b.support)
    assert max_abs_difference(a, b) <= 1e-12
    return a


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
        section=lambda q: q,
        name=f"identity({space.name})",
    )


def traced_peak(call) -> int:
    """The tracemalloc peak of ``call()`` above the memory traced before it, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def plane_state():
    """The planar Grover walk of ``grover2d_to_lazy`` 100 steps from the
    origin: 10 201 sites, as many as plane_verify's last step holds."""
    desc = catalog.scenario("grover2d_to_lazy")
    return evolve(desc.walk, desc.distinguished_states["origin"](), 100)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

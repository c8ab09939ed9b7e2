"""Recovering a parent state from its phase-weighted projections.

For the planar lattice quotients the pair (rho, sigma) is a unimodular
change of coordinates, so a source amplitude is addressed by (r, s) just as
well as by (x, y).  The coefficient of target position r in the projection
at phase value phi is

    P(phi)[r] = sum_s exp(i*phi*s) * alpha[(r, s)],

a trigonometric polynomial in phi whose frequencies are the sigma values
present in that fiber.  Averaging exp(-i*t*phi) * P(phi) over the circle
isolates alpha at s = t exactly.  With M phases sampled uniformly at
phi_j = delta + 2*pi*j/M the average becomes a length-M DFT and isolates s
only modulo M:

    (1/M) sum_j exp(-2i*pi*t*j/M) P(phi_j)[r]
        = sum_{s == t (mod M)} exp(i*s*delta) * alpha[(r, s)].

Recovery of a coefficient is therefore exact whenever no other support
point of the same fiber has sigma congruent to it mod M.  The one inversion
routine, :func:`reconstruct_support`, checks this congruence condition
directly on a caller-supplied candidate region, which admits much smaller
grids when the per-fiber sigma spread is narrow.  :func:`reconstruct` is its
front end for a global sigma window: all sigma values to be recovered fit
into M consecutive integers, a sufficient condition, and the window's
(r, s) pairs are the candidates.  The grid offset delta is
not corrected for: recovered coefficients at sigma = s carry exp(i*s*delta),
and the default grids start at zero.

The family is computed as one batched block.  Projection keeps every fiber
of the initial state at every phase, so the M induced walks share their
target space, coin and support and differ only in their per-direction step
phases exp(i*phi_j*sigma_c).  :func:`phase_projection_family` therefore
advances them as one ``(M, n, dim)`` coin block on one ``(n, d)``
coordinate block, and the inversion reads all fibers from one FFT along the
phase axis of the stacked ``(M, F, dim)`` block.
"""

from __future__ import annotations

import logging
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    GridTooCoarse,
    InconsistentGrid,
    InvalidParameter,
    MissingSigma,
)
from .hilbert import WalkState
from .projection import _project_phases, induced_walk
from .spaces import Position, ProjectionMap, exact_block, group_rows, pack_positions
from .walk import WalkSpec, _advance_block, _step_count

logger = logging.getLogger(__name__)

GRID_TOL = 1e-9

__all__ = [
    "plan_reconstruction",
    "sigma_support_bounds",
    "phase_grid",
    "phase_projection_family",
    "reconstruct",
    "reconstruct_support",
]


def sigma_support_bounds(state: WalkState, pmap: ProjectionMap) -> tuple[int, int]:
    """Smallest and largest sigma value over the state's support."""
    if pmap.sigma_array is None:
        raise MissingSigma(f"projection {pmap.name!r} has no sigma homomorphism")
    values = pmap.sigma_array(exact_block(state.support, pmap.source.dimension))
    return (int(values.min()), int(values.max())) if len(values) else (0, 0)


def phase_grid(samples: int, delta: float = 0.0) -> tuple[float, ...]:
    """The uniform grid delta + 2*pi*j/samples for j = 0..samples-1."""
    if samples < 1:
        raise InvalidParameter(f"need at least one phase sample, got {samples}")
    return tuple(delta + 2.0 * math.pi * j / samples for j in range(samples))


def plan_reconstruction(
    state: WalkState, pmap: ProjectionMap, samples: int | None = None
) -> int:
    """The number of grid phases for recovering ``state``'s support window.

    The default is the global sigma span rounded up to the next odd integer;
    an explicit smaller count raises GridTooCoarse.
    """
    sigma_min, sigma_max = sigma_support_bounds(state, pmap)
    width = sigma_max - sigma_min + 1
    if samples is None:
        samples = width if width % 2 == 1 else width + 1
    elif samples < width:
        raise GridTooCoarse(f"{samples} samples cannot resolve a sigma span of {width}")
    return samples


def phase_projection_family(
    walk: WalkSpec,
    pmap: ProjectionMap,
    psi0: WalkState,
    n: int,
    samples: int,
    delta: float = 0.0,
) -> list[tuple[float, WalkState]]:
    """Evolve the induced walk at every grid phase, starting from the projection.

    Returns (phi_j, state_j) pairs where state_j is n induced steps applied
    to the phi_j projection of psi0.  By the intertwining identity each
    state_j equals the phi_j projection of the evolved parent, so this is
    the family the inversion consumes, produced without ever evolving the
    parent.

    The induced walks share the target space, the coin and, since every
    fiber of psi0 survives projection at every phase, the support; they
    differ only in their step phases.  psi0's fibers are therefore grouped
    and its sigma taken once for all phases, and the walks advance together
    as one ``(M, n, dim)`` coin block on one coordinate block, through the
    coin and step kernels of :func:`~qwproj.walk.apply_coin` and
    :func:`~qwproj.walk.apply_step`; the returned states share that
    coordinate block.  Each state equals, entry for entry, the separate
    evolution of its induced walk from :func:`~qwproj.projection.project_state`.
    """
    steps = _step_count(n)
    grid = phase_grid(samples, delta)
    specs = [induced_walk(walk, pmap, phi) for phi in grid]
    coords, block = _project_phases(pmap, grid, psi0)
    space = pmap.target
    # One (1, dim) phase row per walk, broadcast over its sites; the phi = 0
    # walk has none, and a factor of one leaves its amplitudes unchanged.
    free = np.ones(space.coin_dimension, dtype=np.complex128)
    rows = [spec.step_phases() for spec in specs]
    phases = np.stack([free if row is None else row for row in rows])[:, None, :]
    for _ in range(steps):
        coords, block = _advance_block(specs[0], coords, block, phases)
    logger.debug("built projection family: %d phases, %d steps", samples, steps)
    return [(phi, WalkState.from_blocks(space, coords, coins)) for phi, coins in zip(grid, block)]


def _sorted_grid(
    projections: Sequence[tuple[float, WalkState]],
) -> list[WalkState]:
    """Validate uniform spacing 2*pi/M and return the states in grid order."""
    if not projections:
        raise InvalidParameter("empty projection family")
    ordered = sorted(projections, key=lambda pair: pair[0])
    m = len(ordered)
    step = 2.0 * math.pi / m
    for j in range(1, m):
        if abs((ordered[j][0] - ordered[0][0]) - j * step) > GRID_TOL:
            raise InconsistentGrid(
                f"sample {j} at phi={ordered[j][0]:.12g} is off the uniform "
                f"grid of spacing 2*pi/{m}"
            )
    return [state for _, state in ordered]


def _fiber_stacks(
    states: Sequence[WalkState], dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """The target positions of a family and the ``(M, F, dim)`` DFT bins.

    Returns the ``(F, d)`` coordinate block of every position in any state
    of the family (lexicographic order) and the block whose entry ``[t, f]``
    is (1/M) sum_j exp(-2i*pi*t*j/M) times the coin vector at position f in
    the j-th state.  One FFT along the phase axis keeps the reduction order
    fixed and numerically stable.
    """
    m = len(states)
    sites, inverse = group_rows(np.concatenate([st.coords for st in states]))
    block = np.zeros((m, len(sites), dim), dtype=np.complex128)
    member = np.repeat(np.arange(m), [len(st.coins) for st in states])
    block[member, inverse] = np.concatenate([st.coins for st in states])
    return sites, np.fft.fft(block, axis=0) / m


def reconstruct(
    projections: Sequence[tuple[float, WalkState]],
    pmap: ProjectionMap,
    bounds: tuple[int, int],
) -> WalkState:
    """Invert a projection family over a global sigma window.

    ``bounds`` is the inclusive window of sigma values to recover; every
    (r, s) with r a target position of the family and s in the window maps
    back to the unique source position with rho = r and sigma = s, and
    these positions are the candidates handed to
    :func:`reconstruct_support`.  The window must fit into the grid
    (GridTooCoarse when M < window width), and the family's phases must be
    uniform with spacing 2*pi/M (InconsistentGrid otherwise).  Exactness
    additionally requires the source support's sigma values to lie inside
    the window; use :func:`reconstruct_support` when they do not.
    """
    if pmap.invert_rs is None:
        raise InvalidParameter(
            f"projection {pmap.name!r} does not invert (rho, sigma) coordinates"
        )
    window = range(int(bounds[0]), int(bounds[1]) + 1)
    if not window:
        raise InvalidParameter(f"empty sigma window {bounds}")
    m = len(projections)
    if m < len(window):
        raise GridTooCoarse(f"{m} samples cannot resolve a sigma span of {len(window)}")
    fibers = np.unique(np.concatenate([st.coords[:, 0] for _, st in projections]))
    candidates = [pmap.invert_rs(r, s) for r in fibers.tolist() for s in window]
    return reconstruct_support(projections, pmap, candidates)


def reconstruct_support(
    projections: Sequence[tuple[float, WalkState]],
    pmap: ProjectionMap,
    candidates: Iterable[Position],
) -> WalkState:
    """Invert a projection family onto a candidate source region.

    Recovers the amplitude at every candidate position from the DFT bin of
    its fiber at sigma mod M.  This is exact as long as no two candidates of
    one fiber share a bin, which is checked directly (GridTooCoarse names
    the colliding pair); the grid can therefore be much smaller than the
    global sigma span whenever sigma varies little within each fiber.
    """
    if pmap.sigma_array is None:
        raise MissingSigma(f"projection {pmap.name!r} has no sigma homomorphism")
    states = _sorted_grid(projections)
    m = len(states)
    cand = sorted(set(tuple(p) for p in candidates))
    coords = pack_positions(cand, pmap.source.dimension)
    targets = pmap.rho_array(coords)
    bin_of = pmap.sigma_array(coords) % m
    keys, key_of = group_rows(np.column_stack([targets, bin_of]))
    if len(keys) < len(cand):
        _, first = np.unique(key_of, return_index=True)
        clash = int(np.argmax(first[key_of] != np.arange(len(cand))))
        other = int(first[key_of[clash]])
        raise GridTooCoarse(
            f"candidates {cand[other]} and {cand[clash]} share fiber "
            f"{tuple(targets[clash].tolist())} and sigma bin {int(bin_of[clash])} of {m}"
        )
    fibers, bins = _fiber_stacks(states, pmap.source.coin_dimension)
    # Locate each candidate's fiber among the family's target positions.
    _, where = group_rows(np.concatenate([fibers, targets]))
    fiber_of = np.full(len(where), -1)
    fiber_of[where[: len(fibers)]] = np.arange(len(fibers))
    fiber_of = fiber_of[where[len(fibers) :]]
    found = fiber_of >= 0
    vecs = np.zeros((len(cand), pmap.source.coin_dimension), dtype=np.complex128)
    vecs[found] = bins[bin_of[found], fiber_of[found]]
    keep = vecs.any(axis=1)
    return WalkState.from_blocks(pmap.source, coords[keep], vecs[keep])

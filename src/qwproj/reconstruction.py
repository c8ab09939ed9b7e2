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
directly on a caller-supplied candidate region, held by planning and
inversion alike as one sorted, distinct ``(n, d)`` coordinate block (the
form of a state's coordinates and of a reachable window).  Distinct sigma
values in a range no wider than M stay distinct mod M, so the grid only has
to span the sigma values inside each fiber: :func:`plan_reconstruction`
sizes it by the largest per-fiber sigma span of the candidates, far below
the global span when fibers are narrow (for a lattice quotient (k, l) a
fiber is a line in direction (-l, k)).  :func:`reconstruct` is the front
end for a global sigma window: all sigma values to be recovered fit into M
consecutive integers, a sufficient condition, and the window's (r, s) pairs
are the candidates.  The grid offset delta is not corrected for: recovered
coefficients at sigma = s carry exp(i*s*delta), and the default grids start
at zero.

The family is computed as one batched block.  Projection keeps every fiber
of the initial state at every phase, so the M induced walks share their
target space, coin and support and differ only in their per-direction step
phases exp(i*phi_j*sigma_c), which the walk module's one phase builder
makes for a family as for a single walk.  :func:`phase_projection_family`
therefore advances them as one ``(M, n, dim)`` coin block, stored
``(M, dim, n)``, on one ``(n, d)`` coordinate block, and the inversion
reads all fibers from one FFT along the phase axis of the stacked
``(M, F, dim)`` block.
"""

from __future__ import annotations

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
from .spaces import (
    COORD_LIMIT, Position, ProjectionMap, _count, _debug, _finite, _integer,
    _position_block, check_same_space, group_rows,
)
from .walk import WalkSpec, _phase_factors, _walk_blocks

GRID_TOL = 1e-9

__all__ = [
    "plan_reconstruction",
    "phase_grid",
    "phase_projection_family",
    "reconstruct",
    "reconstruct_support",
]


def phase_grid(samples: int, delta: float = 0.0) -> tuple[float, ...]:
    """The uniform grid delta + 2*pi*j/samples for j = 0..samples-1, delta finite."""
    samples = _count(samples, "phase sample count", 1, COORD_LIMIT)
    _finite(delta, "grid offset delta")
    return tuple(delta + 2.0 * math.pi * j / samples for j in range(samples))


def _candidates(pmap: ProjectionMap, candidates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted, distinct block of a candidate region, its targets under
    rho and its sigma values.  MissingSigma for a map without sigma comes
    before InvalidPosition for a candidate off the source space."""
    if pmap.sigma_array is None:
        raise MissingSigma(f"projection {pmap.name!r} has no sigma homomorphism")
    coords = _position_block(candidates, pmap.source)
    return coords, pmap.rho_array(coords), pmap.sigma_array(coords)


def _bins(coords: np.ndarray, targets: np.ndarray, sigma: np.ndarray, m: int) -> np.ndarray:
    """Every candidate's sigma bin mod ``m``, for a sorted, distinct candidate
    block, its targets under rho and its sigma values.

    GridTooCoarse names the first candidate (in order) that shares its fiber
    and bin with an earlier one, and that earlier one.
    """
    bin_of = (sigma % m).astype(np.intp)
    keys, key_of = group_rows(np.column_stack([targets, bin_of]))
    if len(keys) < len(coords):
        _, first = np.unique(key_of, return_index=True)
        clash = int(np.argmax(first[key_of] != np.arange(len(coords))))
        other = int(first[key_of[clash]])
        pair = [tuple(coords[i].tolist()) for i in (other, clash)]
        raise GridTooCoarse(
            f"candidates {pair[0]} and {pair[1]} share fiber "
            f"{tuple(targets[clash].tolist())} and sigma bin {int(bin_of[clash])} of {m}"
        )
    return bin_of


def plan_reconstruction(
    pmap: ProjectionMap, candidates: np.ndarray | Iterable[Position], samples: int | None = None
) -> int:
    """The number of grid phases for recovering the candidate region.

    ``candidates`` is a coordinate block, such as a reachable window, or an
    iterable of position tuples.  The default is the largest per-fiber sigma
    span (max - min + 1 over the candidates of one fiber), and 1 for no
    candidates.  Either count must be at most 2**63 - 1, as sigma is binned
    modulo it in int64 (InvalidParameter otherwise).  Either grid is checked
    against the candidates here, so that a caller can refuse it before
    evolving any walk: GridTooCoarse names two candidates of one fiber that
    share a sigma bin.
    """
    coords, targets, sigma = _candidates(pmap, candidates)
    if samples is None:
        fibers, fiber_of = group_rows(targets)
        low = np.empty(len(fibers), dtype=sigma.dtype)
        low[fiber_of] = sigma  # some sigma of each fiber
        high = low.copy()
        np.minimum.at(low, fiber_of, sigma)
        np.maximum.at(high, fiber_of, sigma)
        # in exact integers: an int64 span can pass the int64 range
        samples = int((high.astype(object) - low).max()) + 1 if len(fibers) else 1
    samples = _count(samples, "phase sample count", 1, COORD_LIMIT)
    _bins(coords, targets, sigma, samples)
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
    differ only in their step phases exp(i*phi_j*sigma_c).  One induced
    walk, built at phi = 0, gives the coin, and the walk module's phase
    builder turns the map's sigma_c, read once, into the phases of every
    walk.  A map without sigma admits only the grid (0.0,), whose factors
    exp(0) are multiplied in all the same, so every grid takes one path.
    psi0's fibers are grouped and its sigma taken once for all phases, and
    the walks advance together as one ``(M, n, dim)`` coin block on one
    coordinate block through the walk module's block loop, which pays one
    shape comparison per step on a growing support; the returned states
    share that coordinate block, and each holds the component-major
    ``(n, dim)`` view of its walk.  Each state equals, entry for entry, the
    separate evolution of its induced walk from
    :func:`~qwproj.projection.project_state`.
    """
    steps = _count(n, "step count")
    grid = phase_grid(samples, delta)
    spec = induced_walk(walk, pmap)  # for its coin
    sigma_c = pmap.sigma_c
    if sigma_c is None and any(grid):
        raise MissingSigma(f"projection {pmap.name!r} has no sigma homomorphism")
    coords, block, _ = _project_phases(pmap, grid, psi0)
    space = pmap.target
    weights = sigma_c or dict.fromkeys(space.labels, 0)
    phases = _phase_factors(space, weights, np.array(grid)[:, None])[:, None, :]
    for coords, block in _walk_blocks(spec, coords, block, steps, phases):
        pass  # only the blocks after the last step are kept
    _debug(__name__, "built projection family: %d phases, %d steps", samples, steps)
    return [(phi, WalkState.from_blocks(space, coords, coins)) for phi, coins in zip(grid, block)]


def _sorted_grid(
    projections: Sequence[tuple[float, WalkState]], pmap: ProjectionMap
) -> list[WalkState]:
    """Validate uniform spacing 2*pi/M and members on the map's target
    (SpaceMismatch otherwise), and return the states in grid order."""
    if not projections:
        raise InvalidParameter("empty projection family")
    for _, state in projections:
        check_same_space(state.space, pmap.target, "projection family member")
    ordered = sorted(projections, key=lambda pair: pair[0])
    m = len(ordered)
    step = 2.0 * math.pi / m
    for j in range(1, m):
        if not abs((ordered[j][0] - ordered[0][0]) - j * step) <= GRID_TOL:  # NaN too
            raise InconsistentGrid(
                f"sample {j} at phi={ordered[j][0]:.12g} is off the uniform "
                f"grid of spacing 2*pi/{m}"
            )
    return [state for _, state in ordered]


def _fiber_stacks(
    states: Sequence[WalkState], targets: np.ndarray, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(M, F, dim)`` DFT bins of a family and the column of each target.

    The family's positions and the ``(m, d)`` block of ``targets`` are
    grouped together into F sites; entry ``[t, f]`` is (1/M) sum_j
    exp(-2i*pi*t*j/M) times the coin vector at site f in the j-th state,
    zero at a site no state holds.  One FFT along the phase axis keeps the
    reduction order fixed and numerically stable.

    The FFT sums M terms before it divides by M, and the real or imaginary
    part of each term is at most twice the block's largest part.  A block
    whose 2M-fold largest part could pass the float maximum is therefore
    scaled down by a power of two before the FFT and back up after: that
    moves no bit while nothing over- or underflows, and on such a block the
    unscaled sums would overflow.
    """
    m = len(states)
    sites, inverse = group_rows(np.concatenate([*(st.coords for st in states), targets]))
    block = np.zeros((m, len(sites), dim), dtype=np.complex128)
    member = np.repeat(np.arange(m), [len(st.coins) for st in states])
    block[member, inverse[: len(member)]] = np.concatenate([st.coins for st in states])
    parts = block.view(np.float64)
    big = max(float(parts.max(initial=0.0)), -float(parts.min(initial=0.0)))
    shift = max(0, math.frexp(big)[1] + (2 * m).bit_length() - 1023)
    if shift:
        parts *= 2.0**-shift
    bins = np.fft.fft(block, axis=0) / m
    if shift:
        parts = bins.view(np.float64)
        parts *= 2.0**shift
    return bins, inverse[len(member) :]


def reconstruct(
    projections: Sequence[tuple[float, WalkState]],
    pmap: ProjectionMap,
    bounds: tuple[int, int],
) -> WalkState:
    """Invert a projection family over a global sigma window.

    ``bounds`` is the inclusive window of sigma values to recover, two
    integers (InvalidParameter otherwise); every (r, s) with r a target
    position of the family and s in the window maps back to the unique
    source position with rho = r and sigma = s, and these positions are the
    candidates handed to :func:`reconstruct_support`.  The family is checked
    first, as :func:`reconstruct_support` checks it (InvalidParameter when
    empty, SpaceMismatch for a member off the map's target, InconsistentGrid
    unless its phases are uniform with spacing 2*pi/M); then the window
    must fit into the grid (GridTooCoarse when M < window width).
    Exactness additionally requires the source support's sigma values to lie
    inside the window; use :func:`reconstruct_support` when they do not.
    """
    if pmap.invert_rs is None:
        raise InvalidParameter(
            f"projection {pmap.name!r} does not invert (rho, sigma) coordinates"
        )
    try:
        lo, hi = bounds
    except (TypeError, ValueError):
        raise InvalidParameter(f"sigma bounds must be two integers, got {bounds!r}") from None
    window = range(_integer(lo, "sigma bound"), _integer(hi, "sigma bound") + 1)
    if not window:
        raise InvalidParameter(f"empty sigma window {bounds}")
    m = len(_sorted_grid(projections, pmap))
    if m < len(window):
        raise GridTooCoarse(f"{m} samples cannot resolve a sigma span of {len(window)}")
    fibers = np.unique(np.concatenate([st.coords[:, 0] for _, st in projections]))
    candidates = [pmap.invert_rs(r, s) for r in fibers.tolist() for s in window]
    return reconstruct_support(projections, pmap, candidates)


def reconstruct_support(
    projections: Sequence[tuple[float, WalkState]],
    pmap: ProjectionMap,
    candidates: np.ndarray | Iterable[Position],
) -> WalkState:
    """Invert a projection family onto a candidate source region.

    ``candidates`` is a coordinate block, such as a reachable window, or an
    iterable of position tuples.  Recovers the amplitude at every candidate
    position from the DFT bin of its fiber at sigma mod M.  This is exact as
    long as no two candidates of one fiber share a bin, which is checked
    directly (GridTooCoarse names the colliding pair); the grid can
    therefore be much smaller than the global sigma span whenever sigma
    varies little within each fiber.
    """
    coords, targets, sigma = _candidates(pmap, candidates)
    states = _sorted_grid(projections, pmap)
    bin_of = _bins(coords, targets, sigma, len(states))
    bins, fiber_of = _fiber_stacks(states, targets, pmap.source.coin_dimension)
    # A fiber that no member holds is a zero column, so its candidates drop.
    vecs = bins[bin_of, fiber_of]
    keep = vecs.any(axis=1)
    return WalkState.from_blocks(pmap.source, coords[keep], vecs[keep])

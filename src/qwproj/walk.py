"""Coin and step operators and the one-step evolution U = SC.

Two engines advance a state by one step:

* :func:`evolve` works on the packed blocks of the state: the coin is a
  matrix product over the coin block, taken in panels of sites small
  enough for BLAS to keep on one thread and written row-major, as BLAS
  computes it, and the step moves the coordinate block along every
  displacement at once, merges coinciding images with
  :func:`~qwproj.spaces.group_rows` (one int64 key per row over a dense
  bounding box, else a ``lexsort``) and scatters each coin component to
  its image (multiplying in the optional per-direction step phase, which
  ``_phase_factors`` builds from the weights sigma_c, for one walk and
  for a family alike).  A step stores the blocks it makes one component
  at a time: the coordinate block is the ``(n, d)`` view of a C-ordered
  ``(d, n)`` array and the coin block the ``(n, dim)`` view of a
  C-ordered ``(dim, n)`` one, so each coin component lands in one
  contiguous row and the projection reads it as one contiguous column.
  The step kernel also takes coin blocks with a leading batch axis, so a
  family of M walks that share one support and differ only in their step
  phases advances in one call, stored ``(M, dim, n)``
  (:func:`~qwproj.reconstruction.phase_projection_family`).  The coin
  and the step each have one block kernel; :func:`apply_coin` and
  :func:`apply_step` wrap them for states, and ``_walk_states`` steps a
  state through the two wrappers for :func:`evolve` and the parent of
  :func:`~qwproj.projection.verify_commutation`.  One generator,
  ``_walk_blocks``, runs the kernels on bare blocks for the phase family
  and the induced walk of the commutation check.  A step's merge depends
  on the coordinate block alone; ``_merge_images`` computes it, and
  ``_walk_blocks`` reuses it when a block repeats the one two steps back.
  A step holds the state it makes, the coined block and one merge: the
  previous state's coin block is freed before the merge is taken, and the
  merge frees its image block once the rows are keyed.
* :func:`evolve_recurrence` computes the next state in gather form, reading
  the new coin vector at a position x componentwise from the preimages:
  the c-th entry at x is the c-th entry of (C alpha) taken at the position
  that c maps onto x, on exact Python-integer positions.

The engines share the displacement definitions but no stepping code: one
scatters along ``apply_array``, the other gathers through ``unapply_array``,
so their agreement checks each direction against the other.  Operators are
never materialized as matrices on infinite spaces; :func:`dense_unitary`
builds the full matrix for finite spaces only, as an oracle for tests.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, MissingSigma, NotUnitary
from .hilbert import WalkState
from .spaces import (
    Position,
    PositionSpace,
    _Record,
    _count,
    _image_block,
    check_same_space,
    exact_block,
    group_rows,
)

UNITARY_TOL = 1e-12

__all__ = [
    "UNITARY_TOL",
    "CoinAssignment",
    "StepPhase",
    "WalkSpec",
    "grover_coin",
    "hadamard_coin",
    "apply_coin",
    "apply_step",
    "evolve",
    "evolve_recurrence",
    "dense_unitary",
    "state_to_vector",
]


def grover_coin(dim: int = 4) -> np.ndarray:
    """The dim x dim Grover diffusion coin, 2/dim off-diagonal and 2/dim - 1 on it."""
    if dim < 1:
        raise InvalidParameter(f"coin dimension must be >= 1, got {dim}")
    return (2.0 / dim) * np.ones((dim, dim), dtype=np.complex128) - np.eye(
        dim, dtype=np.complex128
    )


def hadamard_coin() -> np.ndarray:
    """The 2 x 2 Hadamard coin (1/sqrt(2)) [[1, 1], [1, -1]]."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


def _check_unitaries(mats, dim: int, positions=None) -> np.ndarray:
    """Stack dim x dim unitaries into one ``(n, dim, dim)`` block, checking
    all of them with one batched product.  Given the positions the matrices
    act at, errors name the first offending position."""

    def at(i) -> str:
        return "" if positions is None else f"coin at {positions[i]}: "

    for i, mat in enumerate(mats):
        if np.shape(mat) != (dim, dim):
            raise DimensionMismatch(
                f"{at(i)}coin matrix has shape {np.shape(mat)}, expected ({dim}, {dim})"
            )
    block = np.array(mats, dtype=np.complex128).reshape(len(mats), dim, dim)
    resid = np.abs(block.conj().swapaxes(1, 2) @ block - np.eye(dim)).max(axis=(1, 2))
    bad = np.flatnonzero(~(resid < UNITARY_TOL))  # NaN fails too
    if bad.size:
        i = bad[0]
        raise NotUnitary(f"{at(i)}unitarity residual {resid[i]:.3e} exceeds {UNITARY_TOL:.0e}")
    return block


class CoinAssignment(_Record):
    """A coin operator: one unitary shared by all positions, or one per position."""

    dimension: int
    matrix: np.ndarray | None = None
    matrix_fn: Callable[[Position], np.ndarray] | None = None

    @staticmethod
    def homogeneous(matrix: np.ndarray) -> "CoinAssignment":
        matrix = np.asarray(matrix, dtype=np.complex128)
        dim = matrix.shape[0]
        return CoinAssignment(dim, matrix=_check_unitaries([matrix], dim)[0])

    @staticmethod
    def positional(fn: Callable[[Position], np.ndarray], dimension: int) -> "CoinAssignment":
        return CoinAssignment(dimension, matrix_fn=fn)

    @property
    def is_homogeneous(self) -> bool:
        return self.matrix is not None

    def at(self, pos: Position) -> np.ndarray:
        """The coin matrix acting at ``pos`` (validated for unitarity)."""
        if self.matrix is not None:
            return self.matrix
        return _check_unitaries([self.matrix_fn(pos)], self.dimension)[0]


class StepPhase(_Record):
    """Per-direction phases picked up by the step: exp(i*phi*sigma_c[label])."""

    phi: float
    sigma_c: Mapping[str, int]


class WalkSpec(_Record):
    """A walk: a space, a coin assignment, and optional step phases."""

    space: PositionSpace
    coin: CoinAssignment
    phase: StepPhase | None = None

    def __post_init__(self) -> None:
        if self.coin.dimension != self.space.coin_dimension:
            raise DimensionMismatch(
                f"coin dimension {self.coin.dimension} != |Gamma| = {self.space.coin_dimension}"
            )
        if self.phase is not None:
            missing = [l for l in self.space.labels if l not in self.phase.sigma_c]
            if missing:
                raise MissingSigma(f"no sigma weight for displacements {missing}")

    def step_phases(self) -> np.ndarray | None:
        """Phase factors in displacement order, or None when the walk is phase-free."""
        phase = self.phase
        return None if phase is None else _phase_factors(self.space, phase.sigma_c, phase.phi)


def _phase_factors(space: PositionSpace, sigma_c: Mapping[str, int], phi) -> np.ndarray:
    """The step phases exp(i*phi*sigma_c) in the space's displacement order:
    ``(dim,)`` for one phase phi, ``(M, dim)`` for an ``(M, 1)`` column of
    phases.  The one place a step weight becomes a phase factor."""
    weights = [sigma_c[d.label] for d in space.displacements]
    _check_phase_argument(max(np.ravel(phi).tolist(), key=abs), max(weights, key=abs))
    return np.exp(1j * phi * np.array(weights, dtype=np.float64))


def _check_phase_argument(phi: float, sigma) -> None:
    """InvalidParameter unless phi*sigma, the argument of the phase
    exp(i*phi*sigma), is within the float range, where numpy would warn and
    return NaN; ``sigma`` is the weight of largest modulus it is taken at."""
    try:
        finite = math.isfinite(phi * float(sigma))
    except OverflowError:  # a weight beyond the float range itself
        finite = False
    if not finite:
        raise InvalidParameter(
            f"phi*sigma is beyond the float range at phi = {phi!r}, sigma = {sigma}, "
            "so the phase exp(i*phi*sigma) cannot be taken"
        )


def apply_coin(spec: WalkSpec, state: WalkState) -> WalkState:
    """Multiply each coin vector by the coin matrix of its position.

    A positional coin is asked once per position for its matrix; the
    matrices are checked for unitarity together (NotUnitary names the first
    offending position) and applied as one batched product.
    """
    check_same_space(state.space, spec.space, "state fed to the walk")
    if not len(state.coins):
        return state
    return state.with_coins(_coin_block(spec.coin, state.coords, state.coins))


# OpenBLAS runs a complex matrix product m x k by k x n on its thread pool
# once m*n*k reaches this size, and every pool thread then touches its own
# work buffers, so the peak memory of a long walk grows with the thread
# count rather than with the state.
_THREADED_MNK = 65_536


def _coin_block(coin: CoinAssignment, coords: np.ndarray, coins: np.ndarray) -> np.ndarray:
    """The coin on packed blocks: the ``(..., n, dim)`` coin block after the
    coin, for the ``(n, d)`` coordinate block it sits on.  ``coins`` may be
    held in any layout; a component-major block goes into the product as
    it is, and gives the bits of a row-major one.  The result is row-major,
    as BLAS writes it: a product written component-major would be the
    transposed product, which rounds differently.  The step scatters it
    into the next component-major block.

    A homogeneous coin is applied in panels of rows, each one product small
    enough for BLAS to run it on the calling thread, written into one
    output block.  The bits are those of a single product: each output row
    depends on its own input row and the matrix alone.  The panels are the
    fewest that fit and of near-equal height, so none is a single row,
    which numpy would hand to a matrix-vector product that rounds
    differently.
    """
    if coin.is_homogeneous:
        mat = coin.matrix.T
        n = coins.shape[-2]
        panels = -(-n // max(1, (_THREADED_MNK - 1) // coin.dimension**2))
        out = np.empty(coins.shape, dtype=np.complex128)
        for i in range(panels):
            rows = slice(i * n // panels, (i + 1) * n // panels)
            np.matmul(coins[..., rows, :], mat, out=out[..., rows, :])
        return out
    positions = list(map(tuple, coords.tolist()))
    mats = _check_unitaries(list(map(coin.matrix_fn, positions)), coin.dimension, positions)
    return (mats @ coins[..., None])[..., 0]


def apply_step(spec: WalkSpec, state: WalkState) -> WalkState:
    """Move the c-th coin component of every position along displacement c.

    When the walk carries step phases, the moved component is multiplied by
    exp(i*phi*sigma_c).  Positions receiving cancelling contributions keep
    an explicit zero vector (no implicit pruning).  Coordinates are exact at
    any size: a step that could leave the int64 range moves exact Python
    integers instead.
    """
    check_same_space(state.space, spec.space, "state fed to the walk")
    if not len(state.coins):
        return state
    merge = _merge_images(spec.space, state.coords)
    phases = spec.step_phases()
    # A state's coin block is read-only, so the phases go into a copy.
    sites, out = _step_block(state.coins if phases is None else state.coins * phases, merge)
    return WalkState.from_blocks(spec.space, sites, out)


def _merge_images(space: PositionSpace, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The merge of one step on an ``(n, d)`` coordinate block: the distinct
    image rows, which are the next coordinate block, and the index among
    them of each image row, the rows taken displacement by displacement.
    The merge depends on the coordinate block alone, so equal blocks have
    equal merges.

    A step holds the state it makes, the coined block and one merge, and the
    merge hands the image block, written one image at a time by
    :func:`~qwproj.spaces._image_block`, to :func:`~qwproj.spaces.group_rows`
    with no other reference, which frees it once the rows are keyed.  At
    10 000 planar sites the merge so peaks at 1.05 MB for a 0.48 MB result.
    """
    return group_rows(_image_block(space, coords))


def _step_block(
    coins: np.ndarray, merge: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The step on packed blocks: the image coordinate and coin blocks.

    ``coins`` is ``(n, dim)``, the coin block of one walk over an ``(n, d)``
    coordinate block, or ``(M, n, dim)``, with a leading batch axis, one
    block per walk of a family sharing that support, with any step phases
    already multiplied in.  ``merge`` is :func:`_merge_images` of the
    coordinate block; it and the index arithmetic serve the whole batch.
    The new coin block is component-major: each coin component of each walk
    is one contiguous row, and one scatter per component fills them all.
    """
    *batch, n, dim = coins.shape
    sites, inverse = merge
    out = np.zeros((*batch, dim, len(sites)), dtype=np.complex128)
    walks = (np.arange(batch[0])[:, None],) if batch else ()
    # Image rows are grouped by displacement, so the c-th run of n entries
    # of the index holds the images of the sites under displacement c.  A
    # displacement is injective, so every (component, site) slot receives
    # at most one amplitude.
    for c in range(dim):
        out[(*walks, c, inverse[c * n : (c + 1) * n])] = coins[..., c]
    return sites, out.swapaxes(-1, -2)


def _walk_blocks(
    spec: WalkSpec, coords: np.ndarray, coins: np.ndarray, n: int, phases: np.ndarray | None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Advance bare blocks by n steps of U = SC and yield the coordinate and
    coin blocks after each, as :func:`apply_coin` then :func:`apply_step`
    leave them.  ``coins`` is shaped as :func:`_step_block` takes it, and
    ``phases`` is None or the per-direction step phases shaped ``(..., dim)``
    to broadcast against it: ``(dim,)`` for one walk, ``(M, 1, dim)`` for M
    walks; the caller takes the phases once.  The coined block is fresh, so
    the phases are multiplied into it in place.

    A step reuses the merge of the step two back when its coordinate block
    equals that step's, as on a finite quotient, whose supports soon repeat
    (a 4-site circle's alternate between its two parity classes, an odd
    circle's stay fixed); a growing support pays one shape comparison per
    step.  At most two merges are held.
    """
    held = [None, None]  # (coordinate block, merge) of the last two steps
    for t in range(n):
        last = held[t % 2]
        if last is None or not (
            last[0] is coords
            or last[0].shape == coords.shape and np.array_equal(last[0], coords)
        ):
            last = held[t % 2] = (coords, _merge_images(spec.space, coords))
        coins = _coin_block(spec.coin, coords, coins)
        if phases is not None:
            np.multiply(coins, phases, out=coins)
        coords, coins = _step_block(coins, last[1])
        yield coords, coins


def _walk_states(spec: WalkSpec, state: WalkState, n: int) -> Iterator[WalkState]:
    """Advance a state by n steps of U = SC and yield the state after each.

    A step holds the state it makes, the coined block and one merge.  The
    coin and the step are two statements, so the previous state's coin
    block goes before the step's merge is taken, once the caller has let go
    of that state too.  Both are looked up in this module when called: a
    traced benchmark run wraps them there and reads the final support as
    the largest :func:`apply_step` output.
    """
    for _ in range(n):
        state = apply_coin(spec, state)
        state = apply_step(spec, state)
        yield state


def evolve(spec: WalkSpec, state: WalkState, n: int) -> WalkState:
    """Apply n steps of U = (step . coin) to the state."""
    n = _count(n, "step count")
    # islice lets go of each state it skips before it asks for the next one.
    return next(islice(_walk_states(spec, state, n), max(n - 1, 0), None), state)


def evolve_recurrence(spec: WalkSpec, state: WalkState, n: int) -> WalkState:
    """Advance the state by the gather-form recurrence.

    The new coin vector at x has c-th entry (C_y alpha_y)_c where y is the
    unique preimage of x under displacement c, times the step phase of c.
    Results agree with :func:`evolve` elementwise to machine precision.
    Positions are exact Python integers of any size.
    """
    n = _count(n, "step count")
    check_same_space(state.space, spec.space, "state fed to the walk")
    for _ in range(n):
        state = _recurrence_step(spec, state)
    return state


def _recurrence_step(spec: WalkSpec, state: WalkState) -> WalkState:
    disps = spec.space.displacements
    phases = spec.step_phases()
    coined = {pos: spec.coin.at(pos) @ vec for pos, vec in state.support.items()}
    block = exact_block(coined, spec.space.dimension)
    images = np.concatenate([disp.apply_array(block) for disp in disps])
    candidates = sorted(set(map(tuple, images.tolist())))
    targets = exact_block(candidates, spec.space.dimension)
    out = {x: np.zeros(len(disps), dtype=np.complex128) for x in candidates}
    for ci, disp in enumerate(disps):
        # Entry ci at x comes from the preimage of x under displacement ci.
        for x, y in zip(candidates, map(tuple, disp.unapply_array(targets).tolist())):
            src = coined.get(y)
            if src is not None:
                out[x][ci] = src[ci] if phases is None else src[ci] * phases[ci]
    return WalkState(spec.space, out)


def dense_unitary(spec: WalkSpec) -> tuple[np.ndarray, tuple[Position, ...]]:
    """The full one-step matrix S @ C for a finite space, plus the basis order.

    Basis index of (position p_i, coin c) is i*dim + c with positions in the
    space's enumeration order.  Intended as a test oracle; raises
    InvalidParameter for spaces without a finite enumeration.
    """
    pts = spec.space.positions
    if pts is None:
        raise InvalidParameter(f"space {spec.space.name!r} has no finite enumeration")
    dim = spec.coin.dimension
    index = {p: i for i, p in enumerate(pts)}
    total = len(pts) * dim
    cmat = np.zeros((total, total), dtype=np.complex128)
    for p, i in index.items():
        cmat[i * dim : (i + 1) * dim, i * dim : (i + 1) * dim] = spec.coin.at(p)
    phases = spec.step_phases()
    smat = np.zeros((total, total), dtype=np.complex128)
    block = exact_block(pts, spec.space.dimension)
    for ci, disp in enumerate(spec.space.displacements):
        for i, image in enumerate(map(tuple, disp.apply_array(block).tolist())):
            smat[index[image] * dim + ci, i * dim + ci] = 1.0 if phases is None else phases[ci]
    return smat @ cmat, pts


def state_to_vector(state: WalkState) -> np.ndarray:
    """Flatten a state on a finite space into the dense basis order."""
    pts = state.space.positions
    if pts is None:
        raise InvalidParameter(f"space {state.space.name!r} has no finite enumeration")
    dim = state.coin_dimension
    vec = np.zeros(len(pts) * dim, dtype=np.complex128)
    for i, p in enumerate(pts):
        if p in state.support:
            vec[i * dim : (i + 1) * dim] = state.support[p]
    return vec


"""Coin and step operators and the one-step evolution U = SC.

Two engines advance a state by one step:

* :func:`evolve` works on the packed blocks of the state: the coin is one
  matrix product over the coin block, and the step moves the coordinate
  block along every displacement at once, merges coinciding images with
  :func:`~qwproj.spaces.group_rows` (one int64 key per row over a dense
  bounding box, else a ``lexsort``) and scatters each coin component to
  its image (multiplying in the optional per-direction step phase).  The
  step kernel also takes coin blocks with a leading batch axis, so a
  family of walks that share one support and differ only in their step
  phases advances in one call
  (:func:`~qwproj.reconstruction.phase_projection_family`).  The coin
  and the step each have one block kernel; :func:`apply_coin` and
  :func:`apply_step` wrap them for states, and loops that step bare
  blocks (the phase family, the induced walk of
  :func:`~qwproj.projection.verify_commutation`) call both through
  ``_advance_block``.  The merge of a step depends on the coordinate block
  alone; ``_merge_images`` computes it, and a loop whose supports repeat
  can hand a held merge back to the step.
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
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, MissingSigma, NotUnitary
from .hilbert import WalkState
from .spaces import (
    COORD_LIMIT,
    Position,
    PositionSpace,
    _is_integer,
    check_coordinate_bound,
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


def _check_unitary(mat: np.ndarray, dim: int) -> np.ndarray:
    return _check_unitaries([mat], dim)[0]


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


@dataclass(frozen=True)
class CoinAssignment:
    """A coin operator: one unitary shared by all positions, or one per position."""

    dimension: int
    matrix: np.ndarray | None = None
    matrix_fn: Callable[[Position], np.ndarray] | None = None

    @staticmethod
    def homogeneous(matrix: np.ndarray) -> "CoinAssignment":
        matrix = np.asarray(matrix, dtype=np.complex128)
        dim = matrix.shape[0]
        return CoinAssignment(dim, matrix=_check_unitary(matrix, dim))

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
        return _check_unitary(self.matrix_fn(pos), self.dimension)


@dataclass(frozen=True)
class StepPhase:
    """Per-direction phases picked up by the step: exp(i*phi*sigma_c[label])."""

    phi: float
    sigma_c: Mapping[str, int]


@dataclass(frozen=True)
class WalkSpec:
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
        if self.phase is None:
            return None
        phi = self.phase.phi
        return np.array(
            [np.exp(1j * phi * self.phase.sigma_c[d.label]) for d in self.space.displacements]
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


def _coin_block(coin: CoinAssignment, coords: np.ndarray, coins: np.ndarray) -> np.ndarray:
    """The coin on packed blocks: the ``(..., n, dim)`` coin block after the
    coin, for the ``(n, d)`` coordinate block it sits on."""
    if coin.is_homogeneous:
        return coins @ coin.matrix.T
    positions = list(map(tuple, coords.tolist()))
    mats = _check_unitaries(list(map(coin.matrix_fn, positions)), coin.dimension, positions)
    return (mats @ coins[..., None])[..., 0]


def apply_step(spec: WalkSpec, state: WalkState) -> WalkState:
    """Move the c-th coin component of every position along displacement c.

    When the walk carries step phases, the moved component is multiplied by
    exp(i*phi*sigma_c).  Positions receiving cancelling contributions keep
    an explicit zero vector (no implicit pruning).  Raises InvalidPosition,
    naming the position, when a step could leave the int64 coordinate range.
    """
    check_same_space(state.space, spec.space, "state fed to the walk")
    if not len(state.coins):
        return state
    sites, out = _step_block(spec.space, state.coords, state.coins, spec.step_phases())
    return WalkState.from_blocks(spec.space, sites, out)


def _advance_block(
    spec: WalkSpec,
    coords: np.ndarray,
    coins: np.ndarray,
    phases: np.ndarray | None,
    merge: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One step U = SC on packed blocks, as :func:`apply_coin` then
    :func:`apply_step` take it on a state: the image coordinate and coin
    blocks.  ``phases`` is the walk's :meth:`WalkSpec.step_phases`, taken
    once by a loop that owns its steps, or the ``(M, 1, dim)`` stack of a
    family; ``merge`` is :func:`_merge_images` of ``coords``, if the caller
    holds it (see :func:`_step_block`)."""
    return _step_block(spec.space, coords, _coin_block(spec.coin, coords, coins), phases, merge)


def _merge_images(space: PositionSpace, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The merge of one step on an ``(n, d)`` coordinate block: the distinct
    image rows, which are the next coordinate block, and the index among
    them of each image row, the rows taken displacement by displacement.

    Raises InvalidPosition, naming the position, when a step could leave
    the int64 coordinate range.  The merge depends on the coordinate block
    alone, so equal blocks have equal merges.
    """
    disps = space.displacements
    check_coordinate_bound(coords, COORD_LIMIT - max(d.reach for d in disps))
    return group_rows(np.concatenate([d.apply_array(coords) for d in disps]))


def _step_block(
    space: PositionSpace,
    coords: np.ndarray,
    coins: np.ndarray,
    phases: np.ndarray | None,
    merge: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The step on packed blocks: the image coordinate and coin blocks.

    ``coins`` is ``(..., n, dim)``: the coin block of one walk over the
    ``(n, d)`` coordinate block, or with a leading batch axis, one block per
    walk of a family sharing that support.  ``phases`` is None or the
    per-direction step phases shaped ``(..., dim)`` to broadcast against
    ``coins``: ``(dim,)`` for one walk, ``(M, 1, dim)`` for M walks.  The
    coordinate bound, the merge of coinciding images and the index
    arithmetic are done once for the whole batch; ``merge``, when given, is
    :func:`_merge_images` of ``coords``, taken earlier.
    """
    dim = len(space.displacements)
    n = len(coords)
    sites, inverse = _merge_images(space, coords) if merge is None else merge
    amps = coins if phases is None else coins * phases
    out = np.zeros(coins.shape[:-2] + (len(sites), dim), dtype=np.complex128)
    # Image rows are grouped by displacement, so entry [k, c] of this index
    # is the image of site k under displacement c.  A displacement is
    # injective, so every (site, component) slot receives one amplitude.
    out[..., inverse.reshape(dim, n).T, np.arange(dim)] = amps
    return sites, out


def _step_count(n) -> int:
    if not _is_integer(n):
        raise InvalidParameter(f"step count must be an integer, got {n!r}")
    if n < 0:
        raise InvalidParameter(f"step count must be >= 0, got {n}")
    return int(n)


def evolve(spec: WalkSpec, state: WalkState, n: int) -> WalkState:
    """Apply n steps of U = (step . coin) to the state."""
    for _ in range(_step_count(n)):
        state = apply_step(spec, apply_coin(spec, state))
    return state


def evolve_recurrence(spec: WalkSpec, state: WalkState, n: int) -> WalkState:
    """Advance the state by the gather-form recurrence.

    The new coin vector at x has c-th entry (C_y alpha_y)_c where y is the
    unique preimage of x under displacement c, times the step phase of c.
    Results agree with :func:`evolve` elementwise to machine precision.
    Positions are exact Python integers of any size.
    """
    n = _step_count(n)
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


"""Sparse vectors on the position (x) coin Hilbert space.

A state assigns a complex coin vector to finitely many positions of a
:class:`~qwproj.spaces.PositionSpace`; positions not listed carry the zero
vector.  A state is held packed: an ``(n, d)`` coordinate block
(:attr:`WalkState.coords`, one row per position) and an ``(n, dim)``
complex128 coin block (:attr:`WalkState.coins`) whose entries are ordered
like the space's displacement family, with rows in lexicographic order of
the positions.  The coordinate block is int64, or exact Python integers
(object dtype) once a coordinate leaves the int64 range; a block computed
from an exact one stays exact.  :attr:`WalkState.support` is a read-only
dict view from position tuples to the coin vectors, built on first use.

The engine stores a block one component at a time.  A coordinate block
is the ``(n, d)`` view of a C-ordered ``(d, n)`` array, and the coin block
a walk step makes is the ``(n, dim)`` view of a C-ordered ``(dim, n)``
array, so that each coordinate and each coin component is one contiguous
column.  A state accepts blocks of any layout, and every operation gives
the same values for every layout, but for the norm of the state's own
coin block (:func:`norm`, and what is compared with it): that sums the
squares in the order the block is stored, so it may differ in its last
bit.

States are immutable values: every operation returns a new state and never
mutates its inputs, so states can be shared freely across threads.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, InvalidPosition, SpaceMismatch
from .spaces import Position, PositionSpace, _position_block, check_same_space, group_rows

__all__ = [
    "WalkState",
    "state_new",
    "norm",
    "inner",
    "position_distribution",
    "scale",
    "add",
    "diff_norm",
    "max_abs_difference",
    "to_json_dict",
    "from_json_dict",
    "json_chunks",
    "json_text",
    "distribution_csv",
]


class WalkState:
    """A finitely supported vector in the position (x) coin space.

    ``WalkState(space, {position: coin vector})`` copies the mapping into
    the packed layout.  Its positions go through the reader of every
    position window in :mod:`~qwproj.spaces`, which gives the coordinate
    block, rows in lexicographic order, and refuses a position without
    ``d`` integer coordinates or off the space (InvalidPosition).  Every
    coin vector must have exactly one entry per displacement
    (DimensionMismatch, naming a position whose vector is off), and all
    amplitudes must be finite numbers (InvalidParameter, naming the
    position); both are checked in that row order.  Kernels build states
    directly from blocks of any layout with :meth:`from_blocks`.
    ``coords``, ``coins`` and ``support`` are read-only.  A site whose coin
    vector cancels to zero keeps an explicit zero row: no operation drops
    sites, so exact cancellations stay visible.  Compare states numerically
    (:func:`diff_norm`, :func:`max_abs_difference`), not with ``==``.
    """

    __slots__ = ("_space", "_coins", "_coords", "_support")

    def __init__(self, space: PositionSpace, support: Mapping[Position, Iterable[complex]]):
        coords = _position_block(support, space)
        positions = list(map(tuple, coords.tolist()))
        dim = space.coin_dimension
        vectors = [support[p] for p in positions]
        try:  # one bulk copy when every vector fits
            coins = np.array(vectors, dtype=np.complex128)
        except (TypeError, ValueError):  # vectors of different lengths, or not numbers
            coins = None
        if coins is None or coins.shape[1:] != (dim,):
            rows = [_coin_row(p, vec, dim) for p, vec in zip(positions, vectors)]
            coins = np.array(rows, dtype=np.complex128).reshape(len(rows), dim)
        finite = np.isfinite(coins).all(axis=1)
        if not finite.all():
            raise InvalidParameter(f"non-finite amplitude at {positions[finite.argmin()]}")
        self._init(space, coins, coords)

    def _init(self, space, coins, coords) -> None:
        coins.flags.writeable = False
        coords.flags.writeable = False
        self._space = space
        self._coins = coins
        self._coords = coords
        self._support = None

    @classmethod
    def from_blocks(
        cls, space: PositionSpace, coords: np.ndarray, coins: np.ndarray
    ) -> "WalkState":
        """Wrap packed blocks without copying: distinct coordinate rows in
        lexicographic order, int64 or exact Python integers as
        :func:`~qwproj.spaces.pack_positions` gives them, and one coin row
        each.  Both become read-only."""
        state = cls.__new__(cls)
        state._init(space, coins, coords)
        return state

    def with_coins(self, coins: np.ndarray) -> "WalkState":
        """A state on the same positions with a new ``(n, dim)`` coin block."""
        state = WalkState.__new__(WalkState)
        state._init(self._space, coins, self._coords)
        return state

    @property
    def space(self) -> PositionSpace:
        return self._space

    @property
    def coins(self) -> np.ndarray:
        return self._coins

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def support(self) -> Mapping[Position, np.ndarray]:
        if self._support is None:
            positions = map(tuple, self._coords.tolist())
            # Contiguous vectors, so that a sum over one does not depend on
            # the layout of the coin block.
            rows = np.ascontiguousarray(self._coins)
            rows.flags.writeable = False
            self._support = MappingProxyType(dict(zip(positions, rows)))
        return self._support

    @property
    def coin_dimension(self) -> int:
        return self.space.coin_dimension

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WalkState on {self.space.name}: {len(self._coins)} positions, norm={norm(self):.6g}>"


def _coin_row(pos: Position, vec: Iterable[complex], dim: int) -> np.ndarray:
    """The coin vector at ``pos`` as a complex128 row; InvalidParameter
    unless its entries are numbers, DimensionMismatch unless it has ``dim``."""
    try:
        row = np.asarray(vec, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"coin vector at {pos} has an entry that is not a number: {exc}") from None
    if row.shape != (dim,):
        raise DimensionMismatch(f"coin vector at {pos} has length {row.size}, space needs {dim}")
    return row


def state_new(
    space: PositionSpace,
    assignments: Iterable[tuple[Position, Iterable[complex]]],
) -> WalkState:
    """Build a state from (position, coin vector) pairs: the :class:`WalkState`
    of their mapping, with the vectors of a repeated position summed."""
    dim = space.coin_dimension
    support: dict[Position, Iterable[complex]] = {}
    for pos, vec in assignments:
        pos = tuple(pos)
        if pos in support:
            vec = _coin_row(pos, support[pos], dim) + _coin_row(pos, vec, dim)
        support[pos] = vec
    return WalkState(space, support)


def norm(state: WalkState) -> float:
    """The 2-norm, sqrt of the summed squared moduli of all amplitudes."""
    return _norm(state.coins)


# A sum of squares below this may have lost more than a rounding of itself
# to squares that underflowed, so the norm is then taken from the rescaled
# block instead.
_SMALL_SUM = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
_LARGE_SUM = np.finfo(np.float64).max
# Entries per np.vdot in a norm.  OpenBLAS, the BLAS of numpy's wheels,
# splits a complex dot product of more than 10 000 entries between its
# threads, whose partial sums then add up in an order set by the thread
# count; a shorter one runs on the calling thread.  Another BLAS may split
# at another length.
_DOT_PIECE = 8192


def _norm(block: np.ndarray) -> float:
    """The 2-norm of a complex block, at any scale of its entries, its
    squares summed in the order the block is stored.

    The squares are summed by ``np.vdot`` over consecutive pieces of at most
    :data:`_DOT_PIECE` entries, and the pieces' sums added in order, so the
    bits do not depend on how many threads OpenBLAS runs.  The sum of squares
    gives the norm where that sum is neither small enough to have lost
    squares to underflow nor overflowed.  Otherwise the moduli
    are divided by the largest of them first, so that their sum of squares
    lies between 1 and the entry count, and the norm is that modulus times
    the root (the safe scaling of Blue, ACM TOMS 4 (1978), and Anderson,
    Algorithm 978, ACM TOMS 44 (2017)).  A block holding inf or NaN has
    norm inf or NaN.
    """
    flat = block.ravel(order="K")  # no copy for a block stored contiguously
    total = 0.0
    for start in range(0, len(flat), _DOT_PIECE):
        piece = flat[start : start + _DOT_PIECE]
        total += float(np.vdot(piece, piece).real)
    if _SMALL_SUM <= total <= _LARGE_SUM:
        return math.sqrt(total)
    moduli = np.abs(block)
    big = float(moduli.max(initial=0.0))
    if not 0.0 < big < math.inf:
        return big
    return big * math.sqrt(float(np.square(moduli / big).sum()))


def inner(a: WalkState, b: WalkState) -> complex:
    """Scalar product, conjugate-linear in ``a`` and linear in ``b``."""
    check_same_space(b.space, a.space, "second state")
    total = 0j
    small, big = (a, b) if len(a.support) <= len(b.support) else (b, a)
    for pos, vec in small.support.items():
        other = big.support.get(pos)
        if other is None:
            continue
        if small is a:
            total += complex(np.vdot(vec, other))
        else:
            total += complex(np.vdot(other, vec))
    return total


def position_distribution(state: WalkState) -> dict[Position, float]:
    """Marginal position probabilities: sum of |amplitude|^2 per position."""
    return {
        pos: float(np.vdot(vec, vec).real) for pos, vec in state.support.items()
    }


def scale(z: complex, state: WalkState) -> WalkState:
    return state.with_coins(z * state.coins)


def add(a: WalkState, b: WalkState) -> WalkState:
    check_same_space(b.space, a.space, "second state")
    out = dict(a.support)
    for pos, vec in b.support.items():
        out[pos] = out[pos] + vec if pos in out else vec
    return WalkState(a.space, out)


def _difference(a: WalkState, b: WalkState) -> np.ndarray:
    """The coin block of a - b over the union of the two supports."""
    check_same_space(b.space, a.space, "second state")
    sites, inverse = group_rows(np.concatenate([a.coords, b.coords]))
    diff = np.zeros((len(sites), a.coin_dimension), dtype=np.complex128)
    # A state holds each site once, so neither assignment repeats an index.
    diff[inverse[: len(a.coins)]] = a.coins
    diff[inverse[len(a.coins) :]] -= b.coins
    return diff


def diff_norm(a: WalkState, b: WalkState) -> float:
    """2-norm of the difference a - b."""
    return _norm(_difference(a, b))


def max_abs_difference(a: WalkState, b: WalkState) -> float:
    """Largest |difference| over all amplitudes of a - b (elementwise)."""
    diff = _difference(a, b)
    return float(np.abs(diff).max()) if diff.size else 0.0


def to_json_dict(state: WalkState) -> dict:
    """State dump: {"space": name, "support": [{"pos": [...], "coin": [[re, im], ...]}]}."""
    coins = np.stack([state.coins.real, state.coins.imag], axis=-1).tolist()
    entries = [{"pos": pos, "coin": coin} for pos, coin in zip(state.coords.tolist(), coins)]
    return {"space": state.space.name, "support": entries}


def from_json_dict(space: PositionSpace, data: Mapping) -> WalkState:
    """Rebuild a state on ``space`` from its dump; the space name must match.

    A dump that is not an object, or whose support is not a list of
    ``{"pos": [...], "coin": [[re, im], ...]}`` entries with numbers for
    ``re`` and ``im`` (a bool is not one) inside the float range, is refused
    with InvalidParameter naming the first bad entry.  Unlike :func:`state_new`,
    which sums repeated positions, a dump listing a position twice is
    refused with InvalidPosition naming it.
    """
    if not isinstance(data, Mapping):
        raise InvalidParameter(f"a state dump is a JSON object, not {type(data).__name__}")
    if data.get("space") != space.name:
        raise SpaceMismatch(
            f"dump is for space {data.get('space')!r}, expected {space.name!r}"
        )
    if not isinstance(data.get("support"), list):
        raise InvalidParameter('a state dump\'s "support" is a list of entries')
    support: dict[Position, list[complex]] = {}
    for i, entry in enumerate(data["support"]):
        try:
            pos = tuple(entry["pos"])
            vec = [_amplitude(re, im) for re, im in entry["coin"]]
            repeated = pos in support  # TypeError for a coordinate that is a list
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameter(
                f'dump entry {i} is not {{"pos": [...], "coin": [[re, im], ...]}}: {exc}'
            ) from None
        except OverflowError:
            raise InvalidParameter(f"dump entry {i} has an amplitude beyond the float range") from None
        if repeated:
            raise InvalidPosition(f"position {pos} appears more than once in the dump")
        support[pos] = vec
    return WalkState(space, support)


def _amplitude(re, im) -> complex:
    """``complex(re, im)``, with TypeError for a bool part: JSON ``true`` is
    not the number 1 here, as it is not a coordinate or a count."""
    for part in (re, im):
        if isinstance(part, bool):
            raise TypeError(f"amplitude part {str(part).lower()} is a bool, not a number")
    return complex(re, im)


# A string the writer puts where a state goes, and its JSON token.
_SLOT = "\x00"
_SLOT_TOKEN = '"\\u0000"'


def _indented(obj, default=None) -> str:
    import json  # loaded by the first write, not by every import

    return json.dumps(obj, sort_keys=True, indent=2, default=default)


def _nested(text: str, depth: int) -> str:
    """JSON text re-indented to sit ``depth`` levels deep.  Exact, because
    JSON text holds no raw newline inside a string."""
    return text.replace("\n", "\n" + "  " * depth)


def _entry_tokens(state: WalkState, start: int, stop: int) -> tuple[str, ...]:
    """Every amplitude and coordinate of entries ``start:stop`` as json
    writes it, entry by entry: re and im of each coin entry, then the
    position.  One call of json's C encoder renders them all, so each token
    is json's own repr (``-0.0``, ``NaN`` and ``Infinity`` included)."""
    import json

    floats = np.ascontiguousarray(state.coins[start:stop]).view(np.float64).tolist()
    rows = json.dumps([c + p for c, p in zip(floats, state.coords[start:stop].tolist())])
    return tuple(rows[2:-2].replace("], [", ", ").split(", "))


# Entries rendered per piece of a state's text.  A bound on the piece keeps
# the writer's memory small and the same whatever the size of the state.
_CHUNK_ENTRIES = 256


def _state_chunks(state: WalkState, depth: int) -> Iterator[str]:
    """The text of :func:`to_json_dict` as json writes it indented and with
    sorted keys, nested ``depth`` levels deep, rendered from the blocks in
    pieces of at most :data:`_CHUNK_ENTRIES` entries.  One template per
    entry, built by json from the shape alone, places the tokens of
    :func:`_entry_tokens`.
    """
    n, dim = state.coins.shape
    frame = _indented({"space": state.space.name, "support": [_SLOT] if n else []})
    frame = _nested(frame, depth)
    if not n:
        yield frame
        return
    entry = _indented({"coin": [[_SLOT, _SLOT]] * dim, "pos": [_SLOT] * state.space.dimension})
    template = _nested(entry, depth + 2).replace(_SLOT_TOKEN, "%s")
    separator = ",\n" + "  " * (depth + 2)
    # "support" sorts after "space", so its slot is the last one in the frame.
    head, _, tail = frame.rpartition(_SLOT_TOKEN)
    yield head
    for start in range(0, n, _CHUNK_ENTRIES):
        stop = min(start + _CHUNK_ENTRIES, n)
        if start:
            yield separator
        yield separator.join([template] * (stop - start)) % _entry_tokens(state, start, stop)
    yield tail


def json_chunks(obj) -> Iterator[str]:
    """The file text of ``obj`` in pieces: ``json.dumps(obj, sort_keys=True,
    indent=2)`` plus a final newline, byte for byte, where every
    :class:`WalkState` in ``obj`` stands for its :func:`to_json_dict` dump.

    States are rendered straight from their blocks, a bounded number of
    entries per piece, and spliced in; the rest of the document goes
    through json, here and now, so an unserializable value raises
    TypeError before any piece is asked for.  A document whose own strings
    render like the state placeholder (they would hold a NUL character) is
    refused with ValueError.
    """
    states = []

    def slot(value):
        if not isinstance(value, WalkState):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        states.append(value)
        return _SLOT

    parts = _indented(obj, slot).split(_SLOT_TOKEN)
    if len(parts) != len(states) + 1:
        raise ValueError("a string in the document renders like the state placeholder")
    return _spliced(parts, states)


def _spliced(parts: list[str], states: list[WalkState]) -> Iterator[str]:
    yield parts[0]
    for state, before, after in zip(states, parts, parts[1:]):
        line = before[before.rfind("\n") + 1 :]
        yield from _state_chunks(state, (len(line) - len(line.lstrip(" "))) // 2)
        yield after
    yield "\n"


def json_text(obj) -> str:
    """The text of :func:`json_chunks` as one string."""
    return "".join(json_chunks(obj))


def distribution_csv(state: WalkState) -> str:
    """Position distribution as CSV text.

    One row per support position sorted lexicographically by coordinates,
    columns are the coordinates followed by the probability, 17 significant
    digits, LF line endings.
    """
    dist = position_distribution(state)
    dim = state.space.dimension
    lines = [",".join([f"x{i}" for i in range(dim)] + ["p"])]
    for pos in sorted(dist):
        lines.append(",".join(str(c) for c in pos) + "," + format(dist[pos], ".17g"))
    return "\n".join(lines) + "\n"

"""Position sets, displacement families, and quotient projection maps.

A walking space is an (at most countable) set of positions together with an
ordered family of injective displacements acting on it.  Each position rule
has one form, an action on an ``(n, d)`` coordinate block (one position is
a one-row block): int64 while every coordinate fits, or object-dtype Python
integers (:func:`exact_block`), on which it is exact and unbounded.  A
block that could leave the int64 range takes the exact form before the
arithmetic, so coordinates never wrap around.  The blocks built here are
stored one coordinate at a time: an ``(n, d)`` block is the transposed
view of a C-ordered ``(d, n)`` array, so that every coordinate is one
contiguous column for the rules, the grouping and the keys.  Every rule
takes a block of any layout and gives the same values.  One reader takes every
window, refusing positions off the space, and one routine builds a block's
images along every displacement, for a walk step and a window hop alike.
Quotient constructors return :class:`ProjectionMap` objects bundling the
surjection ``rho``, the optional additive weight ``sigma``, the induced
displacement family on the quotient, and the bookkeeping needed to invert
the ``(rho, sigma)`` coordinate pair where that is possible.
"""

from __future__ import annotations

import math
import numbers
import sys
from itertools import chain
from typing import Callable, Iterable

import numpy as np

from .errors import InvalidParameter, InvalidPosition, SpaceMismatch

Position = tuple[int, ...]

COORD_LIMIT = 2**63 - 1
"""Largest |coordinate| of an int64 coordinate block.  The range is kept
symmetric so that negating a coordinate never wraps; a block that reaches
beyond it holds exact Python integers instead (see :func:`_exact_beyond`)."""


def _exact_beyond(coords: np.ndarray, bound: int) -> np.ndarray:
    """The block itself, or the block as exact Python integers (object dtype)
    once some |coordinate| exceeds ``bound``.

    Array kernels call this before int64 arithmetic that stays exact only
    within ``bound``, so that the arithmetic never wraps around.
    """
    if coords.dtype != object and len(coords):
        if max(int(coords.max()), -int(coords.min())) > bound:
            return coords.astype(object)
    return coords


def pack_positions(positions: list[Position] | np.ndarray, d: int) -> np.ndarray:
    """The ``(len(positions), d)`` coordinate block of the positions (tuples or
    block rows), in their order, stored a coordinate at a time (see the
    module docstring): int64 when every coordinate is within
    +-COORD_LIMIT, else exact Python integers.  InvalidPosition names the
    first position without ``d`` coordinates or with one that
    :func:`_is_integer` refuses (any in a float block)."""
    if isinstance(positions, np.ndarray):
        if positions.ndim != 2:
            raise InvalidPosition(f"a coordinate block has shape (n, {d}), not {positions.shape}")
        if positions.dtype.kind != "i" or positions.shape[1] != d:
            # checked entry by entry: a cast would truncate floats and wrap uint64
            positions = positions.tolist()
    if not isinstance(positions, np.ndarray):
        bad = next((p for p in positions if len(p) != d), None)
        if bad is not None:
            raise InvalidPosition(f"position {tuple(bad)} has {len(bad)} coordinates, not {d}")
        if not all(map(_integer_type, set(map(type, chain.from_iterable(positions))))):
            bad = next(p for p in positions if not all(map(_is_integer, p)))
            raise InvalidPosition(f"position {tuple(bad)} has a coordinate that is not an integer")
    try:
        coords = np.array(positions, dtype=np.int64).reshape(len(positions), d)
    except OverflowError:
        return exact_block(positions, d)
    return _exact_beyond(np.asfortranarray(coords), COORD_LIMIT)


def _position_block(positions: np.ndarray | Iterable[Position], space: PositionSpace) -> np.ndarray:
    """The sorted, distinct block of a window of the space's positions (a block
    or tuples).  InvalidPosition names a position :func:`pack_positions`
    refuses, else the first or the last if off the space: a finite space is a
    cycle, so its first coordinate bounds the rest."""
    if not isinstance(positions, np.ndarray):
        positions = [tuple(p) for p in positions]
    coords = group_rows(pack_positions(positions, space.dimension))[0]
    for p in map(tuple, coords[[0, -1]].tolist() if len(coords) else []):
        if not space.contains(p):
            raise InvalidPosition(f"{p} is not a position of space {space.name!r}")
    return coords


def exact_block(positions: Iterable[Position], d: int) -> np.ndarray:
    """The ``(n, d)`` object-dtype block of the positions as Python integers,
    stored a coordinate at a time."""
    rows = [[int(c) for c in p] for p in positions]
    return np.asfortranarray(np.array(rows, dtype=object).reshape(len(rows), d))


# group_rows keys a block by its bounding box when the block has at least
# _DENSE_MIN_ROWS rows (below that a lexsort's fixed cost is lower) and its
# box has at most _DENSE_BOX_PER_ROW cells per row (which caps the box arrays
# at 9 bytes per cell, 144 bytes per row).
_DENSE_MIN_ROWS = 128
_DENSE_BOX_PER_ROW = 16


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an ``(m, d)`` coordinate block, and where each row went.

    Returns the distinct rows in lexicographic order, stored a coordinate
    at a time, and, for every input row, the ``intp`` index of its distinct
    row: what ``np.unique(rows, axis=0, return_inverse=True)`` returns (with
    the inverse raveled).  Both branches read the block column by column.

    Two branches compute it; the block's row count and bounding box pick one.
    An int64 block of at least 128 rows whose box has at most 16 cells per
    row is grouped without sorting: each row becomes one int64 key, its
    row-major offset in the box, so that key order is lexicographic order; an
    occupancy array over the box yields the distinct keys in order, and
    they unravel back to rows.  Every other block (empty or small, or with a
    sparse box, which includes every box too large for an int64 key, or of
    exact Python integers) is grouped by a ``lexsort`` and a run-boundary
    diff.

    The box branch holds the block only until the keys are built, which
    serves the lifetime rule of a walk step (the state it makes, the coined
    block and one merge): a caller that hands over its only reference, as
    a step's merge hands over its image block, has the block freed before
    the grouping allocates its own arrays.
    """
    m, d = rows.shape
    if m >= _DENSE_MIN_ROWS and rows.dtype != object:
        cols = [rows[:, j] for j in range(d)]
        lows = [int(c.min()) for c in cols]
        spans = [int(c.max()) - lo + 1 for c, lo in zip(cols, lows)]
        if math.prod(spans) <= _DENSE_BOX_PER_ROW * m:
            del rows  # the column views hold the block now, until they are keyed
            return _group_in_box(cols, lows, spans)
    cols = rows.T
    order = np.lexsort(cols[::-1])
    ranked = cols.take(order, axis=1)
    starts = np.empty(m, dtype=bool)
    starts[:1] = True
    np.logical_or.reduce(ranked[:, 1:] != ranked[:, :-1], axis=0, out=starts[1:])
    inverse = np.empty(m, dtype=np.intp)
    inverse[order] = np.add.accumulate(starts, dtype=np.intp) - 1
    return ranked.compress(starts, axis=1).T, inverse


def _group_in_box(
    cols: list[np.ndarray], lows: list[int], spans: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`group_rows` for a block whose box (``lows``, ``spans`` per
    column) has few cells: key each row by its row-major offset in the box.

    The column views are taken over: the list is emptied once the keys are
    built, and the box arrays and the keys go before the sites are
    unravelled, so each stage holds only the arrays it still reads.
    """
    key = cols[0] - lows[0]
    for j in range(1, len(cols)):
        key *= spans[j]
        key += cols[j]
        key -= lows[j]
    cols.clear()
    occupied = np.zeros(math.prod(spans), dtype=bool)
    occupied[key] = True
    distinct = occupied.nonzero()[0]
    rank = np.empty(len(occupied), dtype=np.intp)
    del occupied
    rank[distinct] = np.arange(len(distinct))
    inverse = rank[key]
    del rank, key
    sites = np.empty((len(lows), len(distinct)), dtype=np.int64)
    for j in range(len(lows) - 1, 0, -1):
        distinct, offset = np.divmod(distinct, spans[j])
        np.add(offset, lows[j], out=sites[j])
    np.add(distinct, lows[0], out=sites[0])
    return sites.T, inverse


class _Record:
    """Base of the public record classes: frozen, without generated code.

    A subclass lists its fields as annotations in its class body, in
    constructor order; a field given a value there takes it as its default.
    The constructor takes the fields positionally or by keyword, raises
    TypeError for an unknown, missing or repeated argument, then runs
    ``__post_init__``, which may set a field with ``object.__setattr__``.
    After that, assigning or deleting an attribute raises AttributeError.
    Records of one class are equal when their field values are equal; the
    hash and the ``repr``, ``Name(field=value, ...)``, use the same values.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        values = dict(zip(fields, args))
        wrong = [k for k in kwargs if k in values or k not in fields]
        values = {**self._defaults, **values, **kwargs}
        missing = [f for f in fields if f not in values]
        if len(args) > len(fields) or wrong or missing:
            raise TypeError(
                f"{type(self).__name__}{fields} got {len(args)} positional arguments; "
                f"unknown or repeated: {wrong}, missing: {missing}"
            )
        self.__dict__.update((f, values[f]) for f in fields)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    # The instance dict holds exactly the fields, in order.
    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in vars(self).items())
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def _debug(logger: str, msg: str, *args) -> None:
    """Log ``msg`` at DEBUG to ``logger`` once the application has loaded
    ``logging``: before that no handler can be set up to show it."""
    if "logging" in sys.modules:
        sys.modules["logging"].getLogger(logger).debug(msg, *args)


class Displacement(_Record):
    """One coin direction: an injective map on the position set.

    ``apply_array`` moves every row of an ``(n, d)`` coordinate block (int64
    or exact object dtype, see the module docstring) forward, and
    ``unapply_array`` is its inverse on the image (total for all catalog
    spaces, whose displacements are bijections); one position moves as a
    one-row block (:func:`displacement_apply`).
    ``delta`` is set for pure integer translations.  ``reach`` bounds how far
    one application moves any coordinate; it defaults to the largest
    ``|delta|`` entry and must be given for displacements without a delta.
    """

    label: str
    apply_array: Callable[[np.ndarray], np.ndarray]
    unapply_array: Callable[[np.ndarray], np.ndarray]
    delta: tuple[int, ...] | None = None
    reach: int | None = None

    def __post_init__(self) -> None:
        if self.reach is None:
            if self.delta is None:
                raise InvalidParameter(
                    f"displacement {self.label!r} needs a delta or a reach"
                )
            object.__setattr__(self, "reach", max(abs(v) for v in self.delta))


class PositionSpace(_Record):
    """A named position set with its ordered family of displacements, at least one.

    The name is the space's identity, so the constructors name each space by
    its structure, its displacements included: states on spaces of one name
    may be compared.  Its positions are the tuples of ``dimension``
    integers; a finite space, a cycle of ``size`` vertices, holds those
    whose first coordinate is in ``0..size-1``.  ``size`` is ``None`` for an
    infinite space.
    """

    name: str
    dimension: int
    displacements: tuple[Displacement, ...]
    size: int | None = None

    def __post_init__(self) -> None:
        labels = [d.label for d in self.displacements]
        if not labels:
            raise InvalidParameter(f"space {self.name!r} has no displacements")
        if len(set(labels)) != len(labels):
            raise InvalidParameter(f"duplicate displacement labels: {labels}")
        if self.size is not None and self.dimension != 1:
            raise InvalidParameter(f"a finite space is a cycle: dimension 1, not {self.dimension}")

    def contains(self, p: Position) -> bool:
        return (
            len(p) == self.dimension
            and all(map(_is_integer, p))
            and (self.size is None or 0 <= p[0] < self.size)
        )

    @property
    def positions(self) -> tuple[Position, ...] | None:
        """The positions of a finite space, enumerated on each read, else ``None``."""
        return None if self.size is None else tuple((m,) for m in range(self.size))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(d.label for d in self.displacements)

    @property
    def coin_dimension(self) -> int:
        return len(self.displacements)

    def displacement(self, label: str) -> Displacement:
        for d in self.displacements:
            if d.label == label:
                return d
        raise InvalidParameter(f"space {self.name!r} has no displacement {label!r}")


def check_same_space(given: PositionSpace, expected: PositionSpace, what: str) -> None:
    """Raise SpaceMismatch unless the two spaces have equal names; ``what``
    names the operand on ``given``."""
    if given.name != expected.name:
        raise SpaceMismatch(f"{what} is on {given.name!r}, expected {expected.name!r}")


class BezoutPair(_Record):
    """Integers with u*k + v*l = 1 for the coprime pair they were built from."""

    u: int
    v: int


class ProjectionMap(_Record):
    """A surjection of walking spaces consistent with every displacement.

    ``rho`` maps source positions onto target positions; its fibers are the
    equivalence classes that get summed by the projection operator.  When the
    source carries a group structure, ``sigma`` is an additive integer weight
    (``sigma(x . c) = sigma(x) + sigma_c[c]``, :attr:`sigma_c` read off
    ``sigma`` at the origin) enabling phase-decorated projections, and
    ``section`` picks one representative per fiber.
    ``rho_array`` and ``sigma_array`` define both on coordinate blocks (see
    the module docstring), returning ``(n, d')`` targets and ``(n,)`` weights;
    one position maps as a one-row block.
    ``invert_rs`` recovers the unique source position from the value pair
    ``(rho, sigma)`` for maps where that pair is a bijective coordinate
    change (the planar lattice quotients).

    The target space carries the induced displacement family under the same
    labels as the source, so projected states keep their coin dimension.
    """

    source: PositionSpace
    target: PositionSpace
    rho_array: Callable[[np.ndarray], np.ndarray]
    sigma_array: Callable[[np.ndarray], np.ndarray] | None = None
    section: Callable[[Position], Position] | None = None
    invert_rs: Callable[[int, int], Position] | None = None
    name: str = ""

    @property
    def sigma_c(self) -> dict[str, int] | None:
        """The step weights sigma(x . c) - sigma(x) by displacement label, read
        at the origin in one ``sigma_array`` call, or None without sigma."""
        if self.sigma_array is None:
            return None
        origin = np.zeros((1, self.source.dimension), dtype=np.int64)
        steps = np.concatenate([origin, _image_block(self.source, origin)])
        at_origin, *stepped = self.sigma_array(steps).tolist()
        return {d.label: w - at_origin for d, w in zip(self.source.displacements, stepped)}


class ConsistencyReport(_Record):
    """Result of a windowed consistency check of rho against the displacements."""

    passed: bool
    positions: int
    pairs: int
    counterexample: tuple | None = None  # (x, y, label, direction)


def _translation(label: str, delta: tuple[int, ...]) -> Displacement:
    d = tuple(int(v) for v in delta)
    arr = np.asarray(d, dtype=np.int64)
    return Displacement(label, lambda c: c + arr, lambda c: c - arr, delta=d)


def _residue(n: int, shift: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """The map c -> (c + shift) mod n on a coordinate block, taken in exact
    Python integers when n is beyond the int64 range."""
    if n > COORD_LIMIT:
        return lambda c: (c.astype(object) + shift) % n
    return lambda c: (c + shift) % n


def _modular(label: str, delta: int, n: int) -> Displacement:
    return Displacement(label, _residue(n, delta), _residue(n, -delta), reach=abs(delta))


def _integer_type(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and not issubclass(t, bool)


def _is_integer(c) -> bool:
    return _integer_type(type(c))


def _integer(n, what: str) -> int:
    """n as an int; InvalidParameter unless it is an integer and not a bool."""
    if not _is_integer(n):
        raise InvalidParameter(f"{what} must be an integer, got {n!r}")
    return int(n)


def _finite(x, what: str, positive: bool = False) -> None:
    """InvalidParameter unless x is a real number, not a bool, finite and,
    if ``positive``, > 0."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise InvalidParameter(f"{what} must be a real number, got {x!r}")
    if not (math.isfinite(x) and (x > 0 or not positive)):
        raise InvalidParameter(f"{what} must be finite{' and > 0' if positive else ''}, got {x!r}")


def _count(n, what: str, least: int = 0, most: int | None = None) -> int:
    """n as an int; InvalidParameter unless it is an integer, not a bool,
    >= least and, if ``most`` is given, <= most."""
    n = _integer(n, what)
    if n < least:
        raise InvalidParameter(f"{what} must be >= {least}, got {n}")
    if most is not None and n > most:
        raise InvalidParameter(f"{what} must be <= {most}, got {n}")
    return n


_UNIT_JUMPS = (("R", 1), ("L", -1))


def _jump_family(base: str, jumps: Iterable[tuple[str, int]]) -> tuple[str, tuple]:
    """The name of a line or circle with these jumps, and their (label, step)
    pairs.  The name is ``base``, followed by the pairs unless they are the
    unit jumps, so no two families share one.  InvalidParameter names a
    non-integral step."""
    jumps = tuple((str(lbl), _integer(d, f"step of jump {lbl!r}")) for lbl, d in jumps)
    return (base if jumps == _UNIT_JUMPS else f"{base}{jumps!r}"), jumps


def _linear_form(coeffs: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """The map c -> sum_i coeffs[i] * c[:, i] on a coordinate block, summed
    column by column, and taken in exact Python integers where the value
    could leave the int64 range."""
    weights = np.asarray(coeffs, dtype=np.int64).tolist()
    bound = COORD_LIMIT // max(1, sum(abs(a) for a in weights))

    def form(c: np.ndarray) -> np.ndarray:
        c = _exact_beyond(c, bound)
        out = c[:, 0] * weights[0]
        for j in range(1, len(weights)):
            out += c[:, j] * weights[j]
        return out

    return form


def lattice_2d() -> PositionSpace:
    """The planar integer lattice with unit steps right, left, up, down."""
    disp = (
        _translation("R", (1, 0)),
        _translation("L", (-1, 0)),
        _translation("U", (0, 1)),
        _translation("D", (0, -1)),
    )
    return PositionSpace("z2", 2, disp)


def line(jumps: Iterable[tuple[str, int]] = _UNIT_JUMPS) -> PositionSpace:
    """The integer line; ``jumps`` gives the (label, step) displacement family.
    It is named ``z1`` for the unit jumps, else ``z1`` followed by the jumps,
    e.g. ``z1(('R', 1), ('L', -1), ('U', 0), ('D', 0))``."""
    name, jumps = _jump_family("z1", jumps)
    disp = tuple(_translation(lbl, (d,)) for lbl, d in jumps)
    return PositionSpace(name, 1, disp)


def circle(n: int, jumps: Iterable[tuple[str, int]] = _UNIT_JUMPS) -> PositionSpace:
    """A cycle of ``n`` vertices with modular steps; positions are 0..n-1.
    Its name is ``circle{n}``, followed by the jumps as in :func:`line`."""
    n = _count(n, "circle size", 1)
    name, jumps = _jump_family(f"circle{n}", jumps)
    disp = tuple(_modular(lbl, d, n) for lbl, d in jumps)
    return PositionSpace(name, 1, disp, n)


def _llattice_step(label: str, sign: int) -> Displacement:
    # Moves x+y by sign everywhere: along x at even parity, along y at odd
    # parity.  A step flips the parity, so unapply reads it off the image.
    # The parity is the low bit of x+y, right for negative and exact Python
    # integers alike (and for an int64 sum that wrapped around).
    def move(c: np.ndarray, by: int, x_parity: int) -> np.ndarray:
        along_x = c[:, 0] + c[:, 1]
        along_x += 1 - x_parity
        along_x &= 1
        out = np.empty((2, len(c)), dtype=c.dtype)
        np.multiply(along_x, by, out=out[0])
        np.subtract(by, out[0], out=out[1])
        out[0] += c[:, 0]
        out[1] += c[:, 1]
        return out.T

    return Displacement(
        label, lambda c: move(c, sign, 0), lambda c: move(c, -sign, 1), reach=1
    )


def llattice() -> PositionSpace:
    """The alternating planar lattice with two diagonal-monotone displacements.

    Vertices are all integer pairs.  At a vertex of even coordinate parity
    (x+y even) the displacement ``a`` steps in +x and ``b`` in -x; at odd
    parity ``a`` steps in +y and ``b`` in -y.  Horizontal and vertical edge
    pairs therefore alternate in a checkerboard pattern, and the diagonal
    coordinate x+y increases by one under ``a`` and decreases by one under
    ``b`` at every vertex, which is what the diagonal quotient relies on.

    Note that this concrete embedding realizes the walking graph rather than
    a faithful group Cayley graph: a^2 shifts by (1, 1) while b^2 shifts by
    (-1, -1), so a^2 and b^2 are distinct lattice translations even though
    both advance the diagonal coordinate by the same amount.  No result
    computed here depends on identifying them.
    """
    steps = (_llattice_step("a", 1), _llattice_step("b", -1))
    return PositionSpace("llattice", 2, steps)


def displacement_apply(space: PositionSpace, x: Position, label: str) -> Position:
    """Apply the displacement named ``label`` to position ``x``.

    Raises InvalidPosition if ``x`` is not in the space and
    InvalidParameter if the label is not declared; the image is exact.
    """
    block = _position_block([x], space).astype(object)
    return tuple(space.displacement(label).apply_array(block)[0].tolist())


def bezout(k: int, l: int) -> BezoutPair:
    """Return integers (u, v) with u*k + v*l = 1, canonicalized.

    Among all solutions, |u| is minimized; a tie (possible only when |l| is
    even) is broken toward the smaller, i.e. negative, u.  When l = 0 the
    solution is (k, 0) since k must be +-1.

    Raises InvalidParameter unless k and l are integers with gcd(k, l) == 1.
    """
    k, l = _integer(k, "k"), _integer(l, "l")
    if math.gcd(k, l) != 1:
        raise InvalidParameter(f"gcd({k}, {l}) != 1")
    if l == 0:
        return BezoutPair(k, 0)  # u = 1/k with k in {1, -1}
    big_l = abs(l)
    u = pow(k, -1, big_l) if big_l > 1 else 0
    if 2 * u >= big_l:
        u -= big_l
    v = (1 - u * k) // l
    return BezoutPair(u, v)


def lattice_quotient(k: int, l: int) -> ProjectionMap:
    """Quotient of the planar lattice by the direction (-l, k).

    Positions (x, y) map to the single integer k*x + l*y; the four unit
    displacements induce line steps +k, -k, +l, -l under the same labels.
    The attached weight is sigma(x, y) = u*y - v*x with (u, v) the canonical
    Bezout pair, making (rho, sigma) a unimodular coordinate change whose
    inverse is (x, y) = (u*r - l*s, v*r + k*s).
    """
    k, l = _integer(k, "k"), _integer(l, "l")
    pair = bezout(k, l)
    u, v = pair.u, pair.v
    source = lattice_2d()
    target = line(jumps=(("R", k), ("L", -k), ("U", l), ("D", -l)))
    rho_form = _linear_form((k, l))
    return ProjectionMap(
        source=source,
        target=target,
        rho_array=lambda c: rho_form(c)[:, None],
        sigma_array=_linear_form((-v, u)),
        section=lambda q: (u * q[0], v * q[0]),
        invert_rs=lambda r, s: (u * r - l * s, v * r + k * s),
        name=f"lattice(k={k},l={l})",
    )


def cyclic_quotient(n: int, source: PositionSpace | None = None) -> ProjectionMap:
    """Fold an integer line onto a cycle of ``n`` vertices via x mod n.

    ``source`` defaults to the standard two-displacement line; any line
    space whose displacements are pure translations is accepted, so folded
    versions of lazy or jump walks can be formed as well.  The weight is
    sigma(x) = x, the identity injection of the line into the integers.
    """
    src = source if source is not None else line()
    if src.dimension != 1 or any(d.delta is None for d in src.displacements):
        raise InvalidParameter("cyclic quotient needs a translation line as source")
    jumps = tuple((d.label, d.delta[0]) for d in src.displacements)
    target = circle(n, jumps=jumps)
    return ProjectionMap(
        source=src,
        target=target,
        rho_array=_residue(target.size),
        sigma_array=lambda c: c[:, 0],
        section=lambda q: (q[0],),
        name=f"mod{target.size}",
    )


def llattice_quotient() -> ProjectionMap:
    """Collapse the alternating lattice onto the line along its diagonals.

    rho(x, y) = x + y, so the displacement ``a`` induces +1 and ``b``
    induces -1 on the line; the same value serves as sigma.
    """
    source = llattice()
    target = line(jumps=(("a", 1), ("b", -1)))
    diagonal = _linear_form((1, 1))
    return ProjectionMap(
        source=source,
        target=target,
        rho_array=lambda c: diagonal(c)[:, None],
        sigma_array=diagonal,
        section=lambda q: (q[0], 0),
        name="llattice-diag",
    )


def check_rho_consistency(pmap: ProjectionMap, window: Iterable[Position]) -> ConsistencyReport:
    """Check rho(x) = rho(y) <=> rho(x.c) = rho(y.c) over a finite window.

    Both implications are verified for every position pair in the window and
    every displacement of the source space; the first counterexample found
    is reported as (x, y, label, direction) where direction says which
    implication broke.  Failure is a report, never an exception; a window
    position off the source space (a block row or a tuple) is InvalidPosition.
    """
    block = _position_block(window, pmap.source)
    xs = list(map(tuple, block.tolist()))
    n = len(xs)
    pairs = n * (n - 1) // 2
    rho_of = dict(zip(xs, map(tuple, pmap.rho_array(block).tolist())))
    images = list(map(tuple, pmap.rho_array(_image_block(pmap.source, block)).tolist()))
    for i, disp in enumerate(pmap.source.displacements):
        img = dict(zip(xs, images[i * n : (i + 1) * n]))
        # forward: equal classes must keep equal image classes;
        # backward: equal image classes must come from equal classes.
        for direction, key, value in (("forward", rho_of, img), ("backward", img, rho_of)):
            first: dict[Position, Position] = {}  # key -> first position with it
            for x in xs:
                rep = first.setdefault(key[x], x)
                if value[x] != value[rep]:
                    return ConsistencyReport(False, n, pairs, (rep, x, disp.label, direction))
    return ConsistencyReport(True, n, pairs)


def reachable_window(
    space: PositionSpace, start: np.ndarray | Iterable[Position], steps: int
) -> np.ndarray:
    """All positions reachable from ``start`` in at most ``steps`` displacement hops.

    ``start`` is a coordinate block or an iterable of position tuples.  The
    window comes back as the sorted, distinct ``(n, d)`` coordinate block
    that :attr:`~qwproj.hilbert.WalkState.coords` also is; test membership
    on ``set(map(tuple, window.tolist()))``.  A start position that is not
    one of the space's raises InvalidPosition.
    """
    seen = _position_block(start, space)
    frontier = seen
    for _ in range(_count(steps, "step count")):
        if not len(frontier):
            break
        merged, inverse = group_rows(np.concatenate([seen, _image_block(space, frontier)]))
        fresh = np.ones(len(merged), dtype=bool)
        fresh[inverse[: len(seen)]] = False
        frontier = merged.T.compress(fresh, axis=1).T
        seen = merged
    return seen


def _image_block(space: PositionSpace, coords: np.ndarray) -> np.ndarray:
    """The images of an ``(n, d)`` coordinate block along every displacement,
    stacked in displacement order, as exact Python integers if a hop could
    leave the int64 range.  They are written into one block, stored a
    coordinate at a time, one image at a time, of the first image's dtype
    (a huge circle's images are exact even from an int64 block)."""
    disps = space.displacements
    coords = _exact_beyond(coords, COORD_LIMIT - max(d.reach for d in disps))
    n = len(coords)
    image = disps[0].apply_array(coords)
    block = np.empty((image.shape[1], len(disps) * n), dtype=image.dtype)
    block[:, :n] = image.T
    del image
    for i, disp in enumerate(disps[1:], 1):
        block[:, i * n : (i + 1) * n] = disp.apply_array(coords).T
    return block.T

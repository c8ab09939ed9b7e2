"""Position sets, displacement families, and quotient projection maps.

A walking space is an (at most countable) set of positions together with an
ordered family of injective displacements acting on it.  All spaces used here
are realized on tuples of Python integers, so coordinate arithmetic is exact
and unbounded.  Quotient constructors return :class:`ProjectionMap` objects
bundling the surjection ``rho``, the optional additive weight ``sigma``, the
induced displacement family on the quotient, and the bookkeeping needed to
invert the ``(rho, sigma)`` coordinate pair where that is possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    InvalidModulus,
    InvalidParameter,
    InvalidPosition,
    NotCoprime,
    UnknownDisplacement,
)

Position = tuple[int, ...]

COORD_LIMIT = 2**63 - 1
"""Largest |coordinate| held in an int64 coordinate block.  The range is
kept symmetric so that negating a coordinate never wraps."""


def check_coordinate_bound(coords: np.ndarray, bound: int) -> None:
    """Raise InvalidPosition unless every |coordinate| of the block is <= bound.

    Array kernels call this before int64 arithmetic that stays exact only
    within ``bound``; the error names the first offending position.
    """
    if len(coords) and max(int(coords.max()), -int(coords.min())) > bound:
        row = coords[((coords > bound) | (coords < -bound)).any(axis=1)][0]
        raise InvalidPosition(
            f"position {tuple(row.tolist())} is out of range for int64 array "
            f"arithmetic (|coordinate| must be <= {bound}); "
            "evolve_recurrence keeps exact integers"
        )


def pack_positions(positions: list[Position], d: int) -> np.ndarray:
    """The ``(len(positions), d)`` int64 block of the position tuples, in
    their order; InvalidPosition names the first one outside +-COORD_LIMIT."""
    try:
        coords = np.array(positions, dtype=np.int64).reshape(len(positions), d)
    except OverflowError:
        bad = next(p for p in positions if any(abs(c) > COORD_LIMIT for c in p))
        raise InvalidPosition(
            f"position {bad} does not fit the int64 coordinate block of a packed state"
        ) from None
    check_coordinate_bound(coords, COORD_LIMIT)
    return coords


# group_rows keys a block by its bounding box when the block has at least
# _DENSE_MIN_ROWS rows (below that a lexsort's fixed cost is lower) and its
# box has at most _DENSE_BOX_PER_ROW cells per row (which caps the box arrays
# at 9 bytes per cell, 144 bytes per row).
_DENSE_MIN_ROWS = 128
_DENSE_BOX_PER_ROW = 16


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an ``(m, d)`` int64 block, and where each row went.

    Returns the distinct rows in lexicographic order and, for every input
    row, the ``intp`` index of its distinct row: what ``np.unique(rows,
    axis=0, return_inverse=True)`` returns (with the inverse raveled).

    Two branches compute it; the block's row count and bounding box pick one.
    A block of at least 128 rows whose box has at most 16 cells per row is
    grouped without sorting: each row becomes one int64 key, its row-major
    offset in the box, so that key order is lexicographic order; an
    occupancy array over the box yields the distinct keys in order, and
    they unravel back to rows.  Every other block (empty or small, or with a
    sparse box, which includes every box too large for an int64 key) is
    grouped by a ``lexsort`` and a run-boundary diff.
    """
    m, d = rows.shape
    if m >= _DENSE_MIN_ROWS:
        # Column by column: rows.min(axis=0) reduces a strided block far slower.
        cols = [rows[:, j] for j in range(d)]
        lows = [int(c.min()) for c in cols]
        spans = [int(c.max()) - lo + 1 for c, lo in zip(cols, lows)]
        if math.prod(spans) <= _DENSE_BOX_PER_ROW * m:
            return _group_in_box(cols, lows, spans)
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.empty(len(rows), dtype=bool)
    starts[:1] = True
    np.logical_or.reduce(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.add.accumulate(starts, dtype=np.intp) - 1
    return ranked[starts], inverse


def _group_in_box(
    cols: list[np.ndarray], lows: list[int], spans: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`group_rows` for a block whose box (``lows``, ``spans`` per
    column) has few cells: key each row by its row-major offset in the box."""
    key = cols[0] - lows[0]
    for c, lo, span in zip(cols[1:], lows[1:], spans[1:]):
        key *= span
        key += c
        key -= lo
    occupied = np.zeros(math.prod(spans), dtype=bool)
    occupied[key] = True
    distinct = occupied.nonzero()[0]
    rank = np.empty(len(occupied), dtype=np.intp)
    rank[distinct] = np.arange(len(distinct))
    inverse = rank[key]
    sites = np.empty((len(distinct), len(cols)), dtype=np.int64)
    for j in range(len(cols) - 1, 0, -1):
        distinct, offset = np.divmod(distinct, spans[j])
        sites[:, j] = offset + lows[j]
    sites[:, 0] = distinct + lows[0]
    return sites, inverse


@dataclass(frozen=True)
class Displacement:
    """One coin direction: an injective map on the position set.

    ``apply`` moves a position forward, ``unapply`` is the inverse on the
    image (total for all catalog spaces, whose displacements are bijections).
    ``apply_array`` is the same map acting row-wise on an ``(n, d)`` int64
    coordinate block; the packed evolution engine steps with it.
    ``delta`` is set for pure integer translations.  ``reach`` bounds how far
    one application moves any coordinate; it defaults to the largest
    ``|delta|`` entry and must be given for displacements without a delta.
    """

    label: str
    apply: Callable[[Position], Position]
    unapply: Callable[[Position], Position]
    apply_array: Callable[[np.ndarray], np.ndarray]
    delta: tuple[int, ...] | None = None
    reach: int | None = None

    def __post_init__(self) -> None:
        if self.reach is None:
            if self.delta is None:
                raise InvalidParameter(
                    f"displacement {self.label!r} needs a delta or a reach"
                )
            object.__setattr__(self, "reach", max(abs(v) for v in self.delta))


@dataclass(frozen=True)
class PositionSpace:
    """A named position set with its ordered displacement family.

    ``signature`` is a structural identity: two space instances with equal
    signatures are interchangeable (states may be compared across them).
    ``positions`` enumerates the space when it is finite, else ``None``.
    """

    name: str
    dimension: int
    displacements: tuple[Displacement, ...]
    contains: Callable[[Position], bool]
    signature: tuple
    positions: tuple[Position, ...] | None = None

    def __post_init__(self) -> None:
        labels = [d.label for d in self.displacements]
        if len(set(labels)) != len(labels):
            raise InvalidParameter(f"duplicate displacement labels: {labels}")

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
        raise UnknownDisplacement(f"space {self.name!r} has no displacement {label!r}")


@dataclass(frozen=True)
class BezoutPair:
    """Integers with u*k + v*l = 1 for the coprime pair they were built from."""

    u: int
    v: int


@dataclass(frozen=True)
class ProjectionMap:
    """A surjection of walking spaces consistent with every displacement.

    ``rho`` maps source positions onto target positions; its fibers are the
    equivalence classes that get summed by the projection operator.  When the
    source carries a group structure, ``sigma`` is an additive integer weight
    (``sigma(x . c) = sigma(x) + sigma_c[c]``) enabling phase-decorated
    projections, and ``section`` picks one representative per fiber.
    ``invert_rs`` recovers the unique source position from the value pair
    ``(rho, sigma)`` for maps where that pair is a bijective coordinate
    change (the planar lattice quotients).

    The target space carries the induced displacement family under the same
    labels as the source, so projected states keep their coin dimension.

    ``rho_array`` and ``sigma_array`` are ``rho`` and ``sigma`` acting on an
    ``(n, d)`` int64 coordinate block, returning the ``(n, d')`` target
    coordinates and the ``(n,)`` weights.  The quotient constructors set
    them; :meth:`rho_block` and :meth:`sigma_block` use them, or evaluate
    the scalar forms site by site for a map without them.
    """

    source: PositionSpace
    target: PositionSpace
    rho: Callable[[Position], Position]
    sigma: Callable[[Position], int] | None = None
    sigma_c: Mapping[str, int] | None = None
    section: Callable[[Position], Position] | None = None
    invert_rs: Callable[[int, int], Position] | None = None
    name: str = ""
    rho_array: Callable[[np.ndarray], np.ndarray] | None = None
    sigma_array: Callable[[np.ndarray], np.ndarray] | None = None

    def induced(self, label: str) -> Displacement:
        """The displacement induced on the target for a source label."""
        return self.target.displacement(label)

    def rho_block(self, coords: np.ndarray) -> np.ndarray:
        """``rho`` on an ``(n, d)`` int64 coordinate block: the ``(n, d')`` targets."""
        if self.rho_array is not None:
            return self.rho_array(coords)
        images = [self.rho(p) for p in map(tuple, coords.tolist())]
        return pack_positions(images, self.target.dimension)

    def sigma_block(self, coords: np.ndarray) -> np.ndarray:
        """``sigma`` on an ``(n, d)`` int64 coordinate block: the ``(n,)`` weights."""
        if self.sigma_array is not None:
            return self.sigma_array(coords)
        return pack_positions([(self.sigma(p),) for p in map(tuple, coords.tolist())], 1)[:, 0]


@dataclass(frozen=True)
class ConsistencyReport:
    """Result of a windowed consistency check of rho against the displacements."""

    passed: bool
    positions: int
    pairs: int
    counterexample: tuple | None = None  # (x, y, label, direction)


def _translation(label: str, delta: tuple[int, ...]) -> Displacement:
    d = tuple(int(v) for v in delta)
    arr = np.asarray(d, dtype=np.int64)
    return Displacement(
        label=label,
        apply=lambda p, _d=d: tuple(a + b for a, b in zip(p, _d)),
        unapply=lambda p, _d=d: tuple(a - b for a, b in zip(p, _d)),
        delta=d,
        apply_array=lambda c, _a=arr: c + _a,
    )


def _modular(label: str, delta: int, n: int) -> Displacement:
    return Displacement(
        label=label,
        apply=lambda p: ((p[0] + delta) % n,),
        unapply=lambda p: ((p[0] - delta) % n,),
        apply_array=lambda c: (c + delta) % n,
        reach=abs(delta),
    )


def _is_coordinate(c) -> bool:
    return isinstance(c, (int, np.integer)) and not isinstance(c, bool)


def _int_tuple_predicate(dim: int) -> Callable[[Position], bool]:
    def contains(p: Position) -> bool:
        return len(p) == dim and all(_is_coordinate(c) for c in p)

    return contains


def _linear_form(coeffs: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
    """The map c -> sum_i coeffs[i] * c[:, i] on an int64 coordinate block.

    Refuses (InvalidPosition, naming the position) a block on which the
    value could leave the int64 range, instead of wrapping around.
    """
    weights = np.asarray(coeffs, dtype=np.int64)
    bound = COORD_LIMIT // max(1, sum(abs(a) for a in coeffs))

    def form(c: np.ndarray) -> np.ndarray:
        check_coordinate_bound(c, bound)
        return c @ weights

    return form


def lattice_2d() -> PositionSpace:
    """The planar integer lattice with unit steps right, left, up, down."""
    disp = (
        _translation("R", (1, 0)),
        _translation("L", (-1, 0)),
        _translation("U", (0, 1)),
        _translation("D", (0, -1)),
    )
    return PositionSpace("z2", 2, disp, _int_tuple_predicate(2), signature=("z2",))


def line(jumps: Iterable[tuple[str, int]] = (("R", 1), ("L", -1))) -> PositionSpace:
    """The integer line; ``jumps`` gives the (label, step) displacement family."""
    jumps = tuple((str(lbl), int(d)) for lbl, d in jumps)
    disp = tuple(_translation(lbl, (d,)) for lbl, d in jumps)
    return PositionSpace("z1", 1, disp, _int_tuple_predicate(1), signature=("z1", jumps))


def circle(n: int, jumps: Iterable[tuple[str, int]] = (("R", 1), ("L", -1))) -> PositionSpace:
    """A cycle of ``n`` vertices with modular steps; positions are 0..n-1."""
    if n < 1:
        raise InvalidModulus(f"circle size must be >= 1, got {n}")
    jumps = tuple((str(lbl), int(d)) for lbl, d in jumps)
    disp = tuple(_modular(lbl, d, n) for lbl, d in jumps)

    def contains(p: Position) -> bool:
        return len(p) == 1 and _is_coordinate(p[0]) and 0 <= p[0] < n

    return PositionSpace(
        f"circle{n}",
        1,
        disp,
        contains,
        signature=("circle", n, jumps),
        positions=tuple((m,) for m in range(n)),
    )


def _llattice_a() -> Displacement:
    # a raises x+y by one everywhere: +x at even parity, +y at odd parity.
    def apply(p: Position) -> Position:
        x, y = p
        return (x + 1, y) if (x + y) % 2 == 0 else (x, y + 1)

    def unapply(p: Position) -> Position:
        x, y = p
        return (x - 1, y) if (x + y) % 2 == 1 else (x, y - 1)

    def apply_array(c: np.ndarray) -> np.ndarray:
        out = c.copy()
        even = (c[:, 0] + c[:, 1]) % 2 == 0
        out[even, 0] += 1
        out[~even, 1] += 1
        return out

    return Displacement("a", apply, unapply, apply_array, reach=1)


def _llattice_b() -> Displacement:
    # b lowers x+y by one everywhere: -x at even parity, -y at odd parity.
    def apply(p: Position) -> Position:
        x, y = p
        return (x - 1, y) if (x + y) % 2 == 0 else (x, y - 1)

    def unapply(p: Position) -> Position:
        x, y = p
        return (x + 1, y) if (x + y) % 2 == 1 else (x, y + 1)

    def apply_array(c: np.ndarray) -> np.ndarray:
        out = c.copy()
        even = (c[:, 0] + c[:, 1]) % 2 == 0
        out[even, 0] -= 1
        out[~even, 1] -= 1
        return out

    return Displacement("b", apply, unapply, apply_array, reach=1)


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
    return PositionSpace(
        "llattice",
        2,
        (_llattice_a(), _llattice_b()),
        _int_tuple_predicate(2),
        signature=("llattice",),
    )


def displacement_apply(space: PositionSpace, x: Position, label: str) -> Position:
    """Apply the displacement named ``label`` to position ``x``.

    Raises InvalidPosition if ``x`` is not in the space and
    UnknownDisplacement if the label is not declared.
    """
    x = tuple(x)
    if not space.contains(x):
        raise InvalidPosition(f"{x} is not a position of space {space.name!r}")
    return space.displacement(label).apply(x)


def bezout(k: int, l: int) -> BezoutPair:
    """Return integers (u, v) with u*k + v*l = 1, canonicalized.

    Among all solutions, |u| is minimized; a tie (possible only when |l| is
    even) is broken toward the smaller, i.e. negative, u.  When l = 0 the
    solution is (k, 0) since k must be +-1.

    Raises NotCoprime unless gcd(k, l) == 1.
    """
    k, l = int(k), int(l)
    if math.gcd(k, l) != 1:
        raise NotCoprime(f"gcd({k}, {l}) != 1")
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
    pair = bezout(k, l)
    u, v = pair.u, pair.v
    source = lattice_2d()
    target = line(jumps=(("R", k), ("L", -k), ("U", l), ("D", -l)))
    rho_form = _linear_form((k, l))
    return ProjectionMap(
        source=source,
        target=target,
        rho=lambda p: (k * p[0] + l * p[1],),
        sigma=lambda p: u * p[1] - v * p[0],
        sigma_c={"R": -v, "L": v, "U": u, "D": -u},
        section=lambda q: (u * q[0], v * q[0]),
        invert_rs=lambda r, s: (u * r - l * s, v * r + k * s),
        name=f"lattice(k={k},l={l})",
        rho_array=lambda c: rho_form(c)[:, None],
        sigma_array=_linear_form((-v, u)),
    )


def cyclic_quotient(n: int, source: PositionSpace | None = None) -> ProjectionMap:
    """Fold an integer line onto a cycle of ``n`` vertices via x mod n.

    ``source`` defaults to the standard two-displacement line; any line
    space whose displacements are pure translations is accepted, so folded
    versions of lazy or jump walks can be formed as well.  The weight is
    sigma(x) = x, the identity injection of the line into the integers.
    """
    if n < 1:
        raise InvalidModulus(f"modulus must be >= 1, got {n}")
    src = source if source is not None else line()
    if src.dimension != 1 or any(d.delta is None for d in src.displacements):
        raise InvalidParameter("cyclic quotient needs a translation line as source")
    jumps = tuple((d.label, d.delta[0]) for d in src.displacements)
    target = circle(n, jumps=jumps)
    return ProjectionMap(
        source=src,
        target=target,
        rho=lambda p: (p[0] % n,),
        sigma=lambda p: p[0],
        sigma_c={lbl: d for lbl, d in jumps},
        section=lambda q: (q[0],),
        name=f"mod{n}",
        rho_array=lambda c: c % n,
        sigma_array=lambda c: c[:, 0],
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
        rho=lambda p: (p[0] + p[1],),
        sigma=lambda p: p[0] + p[1],
        sigma_c={"a": 1, "b": -1},
        section=lambda q: (q[0], 0),
        name="llattice-diag",
        rho_array=lambda c: diagonal(c)[:, None],
        sigma_array=diagonal,
    )


def check_rho_consistency(pmap: ProjectionMap, window: Iterable[Position]) -> ConsistencyReport:
    """Check rho(x) = rho(y) <=> rho(x.c) = rho(y.c) over a finite window.

    Both implications are verified for every position pair in the window and
    every displacement of the source space; the first counterexample found
    is reported as (x, y, label, direction) where direction says which
    implication broke.  Failure is a report, never an exception.
    """
    xs = sorted(set(tuple(p) for p in window))
    n = len(xs)
    pairs = n * (n - 1) // 2
    rho_of = {x: pmap.rho(x) for x in xs}
    for disp in pmap.source.displacements:
        img = {x: pmap.rho(disp.apply(x)) for x in xs}
        # forward: equal classes must keep equal image classes
        by_class: dict[Position, Position] = {}
        rep: dict[Position, Position] = {}
        for x in xs:
            c = rho_of[x]
            if c in by_class:
                if img[x] != by_class[c]:
                    return ConsistencyReport(False, n, pairs, (rep[c], x, disp.label, "forward"))
            else:
                by_class[c] = img[x]
                rep[c] = x
        # backward: equal image classes must come from equal classes
        by_image: dict[Position, Position] = {}
        irep: dict[Position, Position] = {}
        for x in xs:
            c = img[x]
            if c in by_image:
                if rho_of[x] != by_image[c]:
                    return ConsistencyReport(False, n, pairs, (irep[c], x, disp.label, "backward"))
            else:
                by_image[c] = rho_of[x]
                irep[c] = x
    return ConsistencyReport(True, n, pairs)


def reachable_window(space: PositionSpace, start: Iterable[Position], steps: int) -> set[Position]:
    """All positions reachable from ``start`` in at most ``steps`` displacement hops.

    The search runs on int64 coordinate blocks and raises InvalidPosition,
    naming the position, before a hop that could leave the int64 range.
    """
    disps = space.displacements
    bound = COORD_LIMIT - max(d.reach for d in disps)
    seen = pack_positions(sorted(set(tuple(p) for p in start)), space.dimension)
    frontier = seen
    for _ in range(steps):
        if not len(frontier):
            break
        check_coordinate_bound(frontier, bound)
        images = np.concatenate([d.apply_array(frontier) for d in disps])
        merged, inverse = group_rows(np.concatenate([seen, images]))
        known = np.zeros(len(merged), dtype=bool)
        known[inverse[: len(seen)]] = True
        frontier = merged[~known]
        seen = merged
    return set(map(tuple, seen.tolist()))


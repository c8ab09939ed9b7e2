"""Spaces, displacements, Bezout arithmetic, and quotient consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwproj import (
    Displacement,
    InvalidParameter,
    InvalidPosition,
    ProjectionMap,
    SpaceMismatch,
    bezout,
    check_rho_consistency,
    circle,
    cyclic_quotient,
    displacement_apply,
    lattice_2d,
    lattice_quotient,
    line,
    llattice,
    llattice_quotient,
    reachable_window,
)
from qwproj import spaces
from qwproj.spaces import check_same_space, group_rows
from conftest import identity_map


def square_window(r):
    return [(i, j) for i in range(-r, r + 1) for j in range(-r, r + 1)]


class TestDisplacementApply:
    def test_lattice_step_right(self):
        assert displacement_apply(lattice_2d(), (3, 5), "R") == (4, 5)

    def test_circle_wraps(self):
        assert displacement_apply(circle(4), (3,), "R") == (0,)
        assert displacement_apply(circle(4), (0,), "L") == (3,)

    def test_llattice_parity_rule(self):
        # Derived from the alternating double-edge picture: a moves +x at
        # even parity, +y at odd, so it always raises x+y by one.
        sp = llattice()
        assert displacement_apply(sp, (0, 0), "a") == (1, 0)
        assert displacement_apply(sp, (1, 0), "a") == (1, 1)
        assert displacement_apply(sp, (0, 0), "b") == (-1, 0)
        assert displacement_apply(sp, (-1, 0), "b") == (-1, -1)

    def test_invalid_position(self):
        with pytest.raises(InvalidPosition):
            displacement_apply(circle(4), (7,), "R")

    def test_unknown_label(self):
        with pytest.raises(InvalidParameter):
            displacement_apply(lattice_2d(), (0, 0), "Q")

    def test_displacement_needs_delta_or_reach(self):
        same = lambda c: c  # noqa: E731
        with pytest.raises(InvalidParameter):
            Displacement("x", same, same)
        assert Displacement("x", same, same, reach=0).reach == 0
        assert Displacement("x", same, same, delta=(2, -3)).reach == 3

    @pytest.mark.parametrize(
        "space, pos",
        [
            (lattice_2d(), (True, 0)),
            (lattice_2d(), (0, np.bool_(False))),
            (line(), (False,)),
            (llattice(), (1, True)),
            (circle(4), (True,)),
        ],
    )
    def test_bool_coordinates_rejected(self, space, pos):
        assert not space.contains(pos)
        with pytest.raises(InvalidPosition):
            displacement_apply(space, pos, space.labels[0])


class TestDisplacementStructure:
    @pytest.mark.parametrize("space", [lattice_2d(), line(), circle(5), llattice()])
    def test_injective_on_window(self, space):
        if space.positions is not None:
            window = list(space.positions)
        elif space.dimension == 2:
            window = square_window(4)
        else:
            window = [(i,) for i in range(-8, 9)]
        for disp in space.displacements:
            images = [disp.apply(p) for p in window]
            assert len(set(images)) == len(images), disp.label

    @pytest.mark.parametrize("space", [lattice_2d(), line(), circle(5), llattice()])
    def test_unapply_inverts(self, space):
        window = space.positions or (
            square_window(4) if space.dimension == 2 else [(i,) for i in range(-8, 9)]
        )
        for disp in space.displacements:
            for p in window:
                assert disp.unapply(disp.apply(p)) == tuple(p)

    @pytest.mark.parametrize("space", [lattice_2d(), line(), circle(5), llattice()])
    def test_vectorized_action_matches(self, space):
        window = space.positions or (
            square_window(3) if space.dimension == 2 else [(i,) for i in range(-5, 6)]
        )
        coords = np.array(window, dtype=np.int64)
        for disp in space.displacements:
            expected = np.array([disp.apply(p) for p in window], dtype=np.int64)
            np.testing.assert_array_equal(disp.apply_array(coords), expected)


B = 2**70  # far beyond int64, where only exact integer arithmetic is right

# (space, label, position, its image), written out by hand: every catalog
# displacement, the circle's wrap at both ends and the L-lattice's two
# parities, near the origin and at +-2**70.
DISPLACEMENT_TABLE = [
    (lattice_2d(), "R", (3, -5), (4, -5)),
    (lattice_2d(), "L", (3, -5), (2, -5)),
    (lattice_2d(), "U", (3, -5), (3, -4)),
    (lattice_2d(), "D", (3, -5), (3, -6)),
    (line(), "R", (-7,), (-6,)),
    (line(), "L", (-7,), (-8,)),
    (lattice_quotient(1, 0).target, "U", (4,), (4,)),
    (lattice_quotient(2, 1).target, "R", (4,), (6,)),
    (lattice_quotient(2, 1).target, "L", (4,), (2,)),
    (lattice_quotient(2, 1).target, "U", (4,), (5,)),
    (lattice_quotient(2, 1).target, "D", (4,), (3,)),
    (circle(5), "R", (0,), (1,)),
    (circle(5), "R", (4,), (0,)),
    (circle(5), "L", (0,), (4,)),
    (circle(5), "L", (4,), (3,)),
    (llattice(), "a", (2, 4), (3, 4)),
    (llattice(), "a", (2, 3), (2, 4)),
    (llattice(), "b", (2, 4), (1, 4)),
    (llattice(), "b", (2, 3), (2, 2)),
    (llattice(), "a", (-3, 0), (-3, 1)),
    (llattice(), "b", (-3, 0), (-3, -1)),
    (llattice_quotient().target, "a", (0,), (1,)),
    (llattice_quotient().target, "b", (0,), (-1,)),
    (lattice_2d(), "R", (B, -B), (B + 1, -B)),
    (lattice_2d(), "L", (-B, B), (-B - 1, B)),
    (lattice_2d(), "U", (B, B), (B, B + 1)),
    (lattice_2d(), "D", (-B, -B), (-B, -B - 1)),
    (line(), "R", (B,), (B + 1,)),
    (line(), "L", (-B,), (-B - 1,)),
    (lattice_quotient(2, 1).target, "R", (B,), (B + 2,)),
    (lattice_quotient(3, -5).target, "U", (-B,), (-B - 5,)),
    (llattice(), "a", (B, -B), (B + 1, -B)),
    (llattice(), "a", (B + 1, -B), (B + 1, -B + 1)),
    (llattice(), "b", (-B, B), (-B - 1, B)),
    (llattice(), "b", (-B, B + 1), (-B, B)),
    (llattice_quotient().target, "a", (-B,), (-B + 1,)),
]


@pytest.mark.parametrize(
    "space, label, pos, image",
    DISPLACEMENT_TABLE,
    ids=[f"{sp.name}-{lbl}-{pos}" for sp, lbl, pos, _ in DISPLACEMENT_TABLE],
)
def test_displacement_table(space, label, pos, image):
    disp = space.displacement(label)
    assert disp.apply(pos) == image
    assert disp.unapply(image) == pos
    assert all(type(c) is int for c in disp.apply(pos) + disp.unapply(image))
    if max(map(abs, pos)) < 2**31:
        block = disp.apply_array(np.array([pos], dtype=np.int64))
        assert block.dtype == np.int64 and block.tolist() == [list(image)]
        block = disp.unapply_array(np.array([image], dtype=np.int64))
        assert block.dtype == np.int64 and block.tolist() == [list(pos)]


# Every catalog space on unbounded coordinates (a circle's positions are
# 0..n-1, so it has none beyond int64).
UNBOUNDED_SPACES = [
    lattice_2d(),
    line(),
    llattice(),
    lattice_quotient(1, 0).target,
    lattice_quotient(2, 1).target,
    lattice_quotient(3, -5).target,
    llattice_quotient().target,
]


@pytest.mark.parametrize("space", UNBOUNDED_SPACES, ids=lambda sp: str(sp.signature))
@pytest.mark.parametrize("far", [B, -B])
def test_every_displacement_round_trips_beyond_int64(space, far):
    pos = (far,) * space.dimension
    for disp in space.displacements:
        image = disp.apply(pos)
        assert disp.unapply(image) == pos and all(type(c) is int for c in image)
        if disp.delta is not None:
            assert image == tuple(c + d for c, d in zip(pos, disp.delta))


# (map, position, rho, sigma), written out by hand from each map's formula:
# lattice(k, l): rho = k*x + l*y, sigma = u*y - v*x with the canonical
# Bezout pair, (1, 0) for k=1,l=0, (0, 1) for k=2,l=1, (2, 1) for k=3,l=-5;
# mod n: rho = x mod n, sigma = x; the L-lattice diagonal: x + y twice.
MAP_TABLE = [
    (lattice_quotient(1, 0), (3, -5), (3,), -5),
    (lattice_quotient(1, 0), (-7, 2), (-7,), 2),
    (lattice_quotient(1, 0), (B, -B), (B,), -B),
    (lattice_quotient(2, 1), (3, -5), (1,), -3),
    (lattice_quotient(2, 1), (-7, 2), (-12,), 7),
    (lattice_quotient(2, 1), (B, -B), (B,), -B),
    (lattice_quotient(2, 1), (-B, 3), (-2 * B + 3,), B),
    (lattice_quotient(3, -5), (3, -5), (34,), -13),
    (lattice_quotient(3, -5), (-7, 2), (-31,), 11),
    (lattice_quotient(3, -5), (B, B), (-2 * B,), B),
    (lattice_quotient(3, -5), (-B, B), (-8 * B,), 3 * B),
    (cyclic_quotient(3), (7,), (1,), 7),
    (cyclic_quotient(3), (-7,), (2,), -7),
    (cyclic_quotient(3), (B,), (1,), B),
    (cyclic_quotient(3), (-B,), (2,), -B),
    (cyclic_quotient(4), (7,), (3,), 7),
    (cyclic_quotient(4), (-7,), (1,), -7),
    (cyclic_quotient(4), (B + 3,), (3,), B + 3),
    (cyclic_quotient(4), (-B - 1,), (3,), -B - 1),
    (llattice_quotient(), (3, -5), (-2,), -2),
    (llattice_quotient(), (-7, 2), (-5,), -5),
    (llattice_quotient(), (B, B), (2 * B,), 2 * B),
    (llattice_quotient(), (-B, 1), (-B + 1,), -B + 1),
]


@pytest.mark.parametrize(
    "pmap, pos, rho, sigma",
    MAP_TABLE,
    ids=[f"{pm.name}-{i}" for i, (pm, _, _, _) in enumerate(MAP_TABLE)],
)
def test_map_table(pmap, pos, rho, sigma):
    assert pmap.rho(pos) == rho and pmap.sigma(pos) == sigma
    assert all(type(c) is int for c in pmap.rho(pos)) and type(pmap.sigma(pos)) is int
    if max(map(abs, pos)) < 2**31:
        block = np.array([pos], dtype=np.int64)
        assert pmap.rho_array(block).tolist() == [list(rho)]
        assert pmap.sigma_array(block).tolist() == [sigma]


def brute_force_bezout(k, l):
    """Oracle: smallest |u| (tie toward smaller u) with (1 - u*k) divisible by l."""
    if l == 0:
        return (k, 0)
    for u in sorted(range(-2 * abs(l) - 2, 2 * abs(l) + 3), key=lambda t: (abs(t), t)):
        if (1 - u * k) % l == 0:
            return (u, (1 - u * k) // l)
    raise AssertionError("oracle failed")


class TestBezout:
    @pytest.mark.parametrize(
        "k,l,expected",
        [((1), 0, (1, 0)), (2, 1, (0, 1)), (3, 5, (2, -1))],
    )
    def test_pinned_examples(self, k, l, expected):
        pair = bezout(k, l)
        assert (pair.u, pair.v) == expected

    @pytest.mark.parametrize(
        "k,l", [(3, 5), (5, 3), (-3, 5), (3, -5), (7, 4), (1, 1), (0, 1), (0, -1), (1, 0), (-1, 0)]
    )
    def test_matches_exhaustive_search(self, k, l):
        pair = bezout(k, l)
        assert (pair.u, pair.v) == brute_force_bezout(k, l)

    @given(st.integers(-200, 200), st.integers(-200, 200))
    @settings(max_examples=150, deadline=None)
    def test_identity_or_rejection(self, k, l):
        if math.gcd(k, l) == 1:
            pair = bezout(k, l)
            assert pair.u * k + pair.v * l == 1
        else:
            with pytest.raises(InvalidParameter):
                bezout(k, l)

    def test_unimodular_matrix_inverse(self):
        for k, l in [(1, 0), (2, 1), (3, 5), (-4, 7)]:
            pair = bezout(k, l)
            m = np.array([[k, l], [-pair.v, pair.u]], dtype=object)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert det == 1
            minv = np.array([[pair.u, -l], [pair.v, k]], dtype=object)
            assert (m @ minv == np.eye(2, dtype=object)).all()


class TestLatticeQuotient:
    def test_projection_along_y(self):
        pm = lattice_quotient(1, 0)
        assert pm.rho((7, -3)) == (7,)
        assert [d.delta[0] for d in pm.target.displacements] == [1, -1, 0, 0]

    def test_jump_quotient(self):
        pm = lattice_quotient(3, 1)
        assert [d.delta[0] for d in pm.target.displacements] == [3, -3, 1, -1]

    def test_doubled_line(self):
        pm = lattice_quotient(1, 1)
        assert [d.delta[0] for d in pm.target.displacements] == [1, -1, 1, -1]

    def test_rejects_non_coprime(self):
        with pytest.raises(InvalidParameter):
            lattice_quotient(2, 4)

    @pytest.mark.parametrize("k,l", [(1, 0), (2, 1), (3, 5), (-2, 3)])
    def test_sigma_is_additive(self, k, l):
        pm = lattice_quotient(k, l)
        for p in square_window(3):
            for d in pm.source.displacements:
                assert pm.sigma(d.apply(p)) == pm.sigma(p) + pm.sigma_c[d.label]

    @pytest.mark.parametrize("k,l", [(1, 0), (2, 1), (3, 5)])
    def test_rho_is_homomorphic_to_induced(self, k, l):
        pm = lattice_quotient(k, l)
        for p in square_window(3):
            for d in pm.source.displacements:
                assert pm.rho(d.apply(p)) == pm.target.displacement(d.label).apply(pm.rho(p))

    @pytest.mark.parametrize("k,l", [(1, 0), (2, 1), (3, 5)])
    def test_section_and_inversion(self, k, l):
        pm = lattice_quotient(k, l)
        for r in range(-5, 6):
            assert pm.rho(pm.section((r,))) == (r,)
            for s in range(-5, 6):
                p = pm.invert_rs(r, s)
                assert pm.rho(p) == (r,) and pm.sigma(p) == s


class TestCyclicQuotient:
    def test_mod_convention(self):
        pm = cyclic_quotient(4)
        assert pm.rho((7,)) == (3,)
        assert pm.rho((-1,)) == (3,)

    def test_degenerate_single_vertex(self):
        pm = cyclic_quotient(1)
        assert pm.rho((5,)) == (0,) and pm.rho((-9,)) == (0,)

    def test_rejects_bad_modulus(self):
        with pytest.raises(InvalidParameter):
            cyclic_quotient(0)

    def test_rejects_circle_source(self):
        # x mod 3 does not respect a 5-cycle's steps (rho(1) = rho(4), but
        # R takes them to 2 and 0), so a circle is no translation line.
        with pytest.raises(InvalidParameter, match="translation line"):
            cyclic_quotient(3, source=circle(5))

    def test_modular_steps_carry_a_reach_and_no_delta(self):
        disps = circle(5, jumps=(("R", 3), ("L", -1), ("S", 0))).displacements
        assert [(d.delta, d.reach) for d in disps] == [(None, 3), (None, 1), (None, 0)]

    def test_sigma_is_identity(self):
        pm = cyclic_quotient(4)
        assert pm.sigma((-7,)) == -7
        assert pm.sigma_c == {"R": 1, "L": -1}

    def test_rho_is_homomorphic_to_induced(self):
        pm = cyclic_quotient(4)
        for x in range(-9, 10):
            for d in pm.source.displacements:
                assert pm.rho(d.apply((x,))) == pm.target.displacement(d.label).apply(pm.rho((x,)))


@pytest.mark.parametrize(
    "pmap,window",
    [
        (cyclic_quotient(5), [(i,) for i in range(-9, 10)]),
        (llattice_quotient(), [(i, j) for i in range(-3, 4) for j in range(-3, 4)]),
    ],
)
def test_sigma_additive_on_all_quotients(pmap, window):
    for p in window:
        for d in pmap.source.displacements:
            assert pmap.sigma(d.apply(p)) == pmap.sigma(p) + pmap.sigma_c[d.label]


class TestLLatticeQuotient:
    def test_generator_images(self):
        pm = llattice_quotient()
        sp = pm.source
        assert pm.rho((0, 0)) == (0,)
        assert pm.rho(displacement_apply(sp, (0, 0), "a")) == (1,)
        assert pm.rho(displacement_apply(sp, (0, 0), "b")) == (-1,)

    def test_diagonal_shift_everywhere(self):
        pm = llattice_quotient()
        for p in square_window(4):
            assert pm.rho(pm.source.displacement("a").apply(p)) == (pm.rho(p)[0] + 1,)
            assert pm.rho(pm.source.displacement("b").apply(p)) == (pm.rho(p)[0] - 1,)


def test_space_mismatch_tells_same_named_spaces_apart():
    lazy, doubled = lattice_quotient(1, 0).target, lattice_quotient(1, 1).target
    assert lazy.name == doubled.name == "z1"
    with pytest.raises(SpaceMismatch) as raised:
        check_same_space(lazy, doubled, "state")
    assert str(raised.value) == (
        f"state is on 'z1' {lazy.signature}, expected 'z1' {doubled.signature}"
    )
    with pytest.raises(SpaceMismatch, match="^state is on 'z2', expected 'z1'$"):
        check_same_space(lattice_2d(), line(), "state")


class TestConsistencyCheck:
    def test_lattice_quotient_passes(self):
        report = check_rho_consistency(lattice_quotient(2, 1), square_window(5))
        assert report.passed and report.counterexample is None

    def test_quadratic_map_fails_with_witness(self):
        bad = ProjectionMap(
            source=lattice_2d(),
            target=line(),
            rho_array=lambda c: c[:, :1] * c[:, :1],
            name="x-squared",
        )
        report = check_rho_consistency(bad, square_window(3))
        assert not report.passed
        x, y, label, direction = report.counterexample
        # replay the witness against the defining condition
        disp = bad.source.displacement(label)
        same_before = bad.rho(x) == bad.rho(y)
        same_after = bad.rho(disp.apply(x)) == bad.rho(disp.apply(y))
        assert same_before != same_after
        assert direction in ("forward", "backward")

    def test_identity_passes(self):
        report = check_rho_consistency(identity_map(lattice_2d()), square_window(3))
        assert report.passed

    def test_pair_count(self):
        report = check_rho_consistency(lattice_quotient(1, 0), square_window(2))
        assert report.positions == 25 and report.pairs == 300


class TestWindows:
    def test_reachable_window_growth(self):
        sp = line()
        window = reachable_window(sp, [(0,)], 3)
        assert window == {(i,) for i in range(-3, 4)}

    def test_reachable_window_llattice(self):
        sp = llattice()
        window = reachable_window(sp, [(0, 0)], 2)
        for p in window:
            assert abs(p[0]) + abs(p[1]) <= 2

    @pytest.mark.parametrize(
        "space, start",
        [
            (lattice_2d(), [(0, 0), (3, -1)]),
            (line(), [(-2,), (5,)]),
            (line(jumps=(("R", 2), ("S", 0), ("L", -3))), [(0,)]),
            (circle(5), [(0,), (3,)]),
            (llattice(), [(0, 0), (1, 4)]),
        ],
    )
    @pytest.mark.parametrize("steps", [0, 1, 4, 9])
    def test_reachable_window_matches_tuple_search(self, space, start, steps):
        seen = set(start)
        frontier = set(seen)
        for _ in range(steps):
            frontier = {d.apply(p) for p in frontier for d in space.displacements} - seen
            seen |= frontier
        assert reachable_window(space, start, steps) == seen

    def test_reachable_window_empty_start(self):
        assert reachable_window(lattice_2d(), [], 5) == set()

    def test_reachable_window_refuses_int64_overflow(self):
        top = 2**63 - 1
        assert reachable_window(line(), [(top,)], 0) == {(top,)}
        with pytest.raises(InvalidPosition, match=str(top)):
            reachable_window(line(), [(top,)], 1)



TOP = spaces.COORD_LIMIT  # 2**63 - 1


@st.composite
def row_blocks(draw):
    """An ``(m, d)`` int64 block with heavy duplication: m rows drawn from a
    small pool of rows, which lie in a dense box, spread sparsely, or sit
    near +-(2**63 - 1) so that their box overflows int64."""
    d = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.sampled_from([0, 1, 2, 300, 2000]))
    layout = draw(st.sampled_from(["dense", "sparse", "extreme"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool_size = draw(st.sampled_from([1, 3, max(1, m // 4), max(1, m)]))
    if layout == "dense":
        width = draw(st.integers(1, 6))
        low = draw(st.sampled_from([0, -50, -TOP, TOP - width + 1]))
        pool = low + rng.integers(0, width, size=(pool_size, d))
    elif layout == "sparse":
        pool = rng.integers(-(10**9), 10**9, size=(pool_size, d))
    else:
        near = rng.integers(0, 4, size=(pool_size, d))
        pool = np.where(rng.random((pool_size, d)) < 0.5, TOP - near, near - TOP)
    return pool[rng.integers(0, pool_size, size=m)].astype(np.int64).reshape(m, d)


class TestGroupRows:
    """``group_rows`` is ``np.unique(axis=0, return_inverse=True)`` on every block."""

    @staticmethod
    def check(rows):
        sites, inverse = group_rows(rows)
        ref_sites, ref_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert sites.dtype == np.int64 and inverse.dtype == np.intp
        assert sites.shape == ref_sites.shape
        assert np.array_equal(sites, ref_sites)
        assert np.array_equal(inverse, ref_inverse.ravel())

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(row_blocks())
    def test_matches_numpy_unique(self, rows):
        self.check(rows)

    @pytest.mark.parametrize(
        "rows, boxed",
        [
            (np.empty((0, 2), dtype=np.int64), False),
            (np.array([[3, -1], [3, -1]], dtype=np.int64), False),
            (np.arange(-300, 300, dtype=np.int64).reshape(200, 3) % 7, True),
            (np.tile(np.array([[TOP], [-TOP]], dtype=np.int64), (200, 1)), False),
            (np.tile(np.array([[TOP, -TOP], [TOP - 1, -TOP + 1]], dtype=np.int64), (100, 1)), True),
            (np.arange(400, dtype=np.int64).reshape(200, 2) * 10**6, False),
            (np.array([[7]], dtype=np.int64), False),
            (np.array([[2], [-1]], dtype=np.int64), False),
            (np.arange(127, dtype=np.int64).reshape(127, 1) % 5, False),
            (np.arange(128, dtype=np.int64).reshape(128, 1) % 5 - 2, True),
        ],
        ids=[
            "empty", "two-rows", "dense-box", "overflowing-box", "box-at-the-bound", "sparse",
            "one-column-1", "one-column-2", "one-column-127", "one-column-128",
        ],
    )
    def test_both_branches(self, monkeypatch, rows, boxed):
        calls = []
        in_box = spaces._group_in_box
        monkeypatch.setattr(
            spaces, "_group_in_box", lambda *args: calls.append(1) or in_box(*args)
        )
        self.check(rows)
        assert bool(calls) == boxed

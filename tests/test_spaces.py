"""Spaces, displacements, Bezout arithmetic, and quotient consistency."""

import math
import re
from collections.abc import Hashable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwproj import (
    BezoutPair,
    CoinAssignment,
    CommutationReport,
    ConsistencyReport,
    Displacement,
    HomogeneityReport,
    InvalidParameter,
    InvalidPosition,
    PositionSpace,
    ProjectionMap,
    ScenarioDescriptor,
    SpaceMismatch,
    StepPhase,
    WalkSpec,
    bezout,
    check_coin_homogeneity,
    check_rho_consistency,
    circle,
    cyclic_quotient,
    displacement_apply,
    hadamard_coin,
    lattice_2d,
    lattice_quotient,
    line,
    llattice,
    llattice_quotient,
    plan_reconstruction,
    reachable_window,
    reconstruct_support,
    state_new,
)
from qwproj import spaces
from qwproj.spaces import check_same_space, exact_block, group_rows
from conftest import evolve_both, identity_map, on_position


def square_window(r):
    return [(i, j) for i in range(-r, r + 1) for j in range(-r, r + 1)]


def square_block(r):
    return np.array(square_window(r), dtype=np.int64)


def assert_sigma_additive(pmap, coords):
    """sigma(x . c) = sigma(x) + sigma_c[c] on every row of the block."""
    for d in pmap.source.displacements:
        moved = pmap.sigma_array(d.apply_array(coords))
        assert moved.tolist() == (pmap.sigma_array(coords) + pmap.sigma_c[d.label]).tolist()


def assert_rho_homomorphic(pmap, coords):
    """rho(x . c) = rho(x) . c on every row of the block, c the induced step."""
    for d in pmap.source.displacements:
        induced = pmap.target.displacement(d.label).apply_array(pmap.rho_array(coords))
        assert pmap.rho_array(d.apply_array(coords)).tolist() == induced.tolist()


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

    @pytest.mark.parametrize(
        "space, x", [(circle(4), (7,)), (circle(4), (-1,)), (line(), (0, 0))]
    )
    def test_invalid_position(self, space, x):
        with pytest.raises(InvalidPosition, match=re.escape(f"{x} ")):
            displacement_apply(space, x, space.labels[0])

    def test_exact_past_int64(self):
        top = 2**63 - 1
        image = displacement_apply(line(), (top,), "R")
        assert image == (top + 1,) and type(image[0]) is int
        assert displacement_apply(circle(2**70), (2**70 - 1,), "R") == (0,)

    def test_unknown_label(self):
        with pytest.raises(InvalidParameter):
            displacement_apply(lattice_2d(), (0, 0), "Q")

    def test_displacement_needs_delta_or_reach(self):
        same = lambda c: c  # noqa: E731
        with pytest.raises(InvalidParameter):
            Displacement("x", same, same)
        assert Displacement("x", same, same, reach=0).reach == 0
        assert Displacement("x", same, same, delta=(2, -3)).reach == 3

    def test_displacement_labels_must_differ(self):
        twice = 2 * line().displacements
        with pytest.raises(InvalidParameter, match="duplicate displacement labels"):
            PositionSpace("z1", 1, twice)

    @pytest.mark.parametrize(
        "build", [lambda: line(()), lambda: circle(4, ()), lambda: PositionSpace("z1", 1, ())]
    )
    def test_a_space_has_a_displacement(self, build):
        # no walk steps on an empty family, and no hop has images
        with pytest.raises(InvalidParameter, match="has no displacements"):
            build()

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
            images = disp.apply_array(np.array(window, dtype=np.int64))
            assert len(group_rows(images)[0]) == len(window), disp.label

    @pytest.mark.parametrize("space", [lattice_2d(), line(), circle(5), llattice()])
    def test_unapply_inverts(self, space):
        window = space.positions or (
            square_window(4) if space.dimension == 2 else [(i,) for i in range(-8, 9)]
        )
        coords = np.array(window, dtype=np.int64)
        for disp in space.displacements:
            np.testing.assert_array_equal(disp.unapply_array(disp.apply_array(coords)), coords)

    @pytest.mark.parametrize("space", [lattice_2d(), line(), circle(5), llattice()])
    def test_vectorized_action_matches(self, space):
        window = space.positions or (
            square_window(3) if space.dimension == 2 else [(i,) for i in range(-5, 6)]
        )
        coords = np.array(window, dtype=np.int64)
        exact = exact_block(window, space.dimension)
        for disp in space.displacements:
            for act in (disp.apply_array, disp.unapply_array):
                assert act(coords).dtype == np.int64
                assert act(coords).tolist() == act(exact).tolist()


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
    forward, back = on_position(disp.apply_array, pos), on_position(disp.unapply_array, image)
    assert forward == image and back == pos
    assert all(type(c) is int for c in forward + back)
    if max(map(abs, pos)) < 2**31:
        block = disp.apply_array(np.array([pos], dtype=np.int64))
        assert block.dtype == np.int64 and block.tolist() == [list(image)]
        block = disp.unapply_array(np.array([image], dtype=np.int64))
        assert block.dtype == np.int64 and block.tolist() == [list(pos)]


def _llattice_by_masks(c, by, x_parity):
    """The L-lattice step as a mask over the parity classes, a reference for
    the parity arithmetic the space uses."""
    out = np.array(c, copy=True)
    along_x = (c[:, 0] + c[:, 1]) % 2 == x_parity
    out[along_x, 0] += by
    out[~along_x, 1] += by
    return out


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    offset=st.sampled_from([0, 2**40, -(2**40), B, -B]),
    order=st.sampled_from("CF"),
)
def test_llattice_step_matches_the_parity_masks(seed, offset, order):
    rng = np.random.default_rng(seed)
    values = rng.integers(-50, 51, size=(64, 2))
    block = exact_block(values.tolist(), 2) + offset if abs(offset) > 2**62 else values + offset
    block = np.asfortranarray(block) if order == "F" else np.ascontiguousarray(block)
    for disp, sign in zip(llattice().displacements, (1, -1)):
        image = disp.apply_array(block)
        assert image.dtype == block.dtype
        assert image.tolist() == _llattice_by_masks(block, sign, 0).tolist()
        assert disp.unapply_array(image).tolist() == block.tolist()


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


@pytest.mark.parametrize("space", UNBOUNDED_SPACES, ids=lambda sp: sp.name)
@pytest.mark.parametrize("far", [B, -B])
def test_every_displacement_round_trips_beyond_int64(space, far):
    pos = (far,) * space.dimension
    for disp in space.displacements:
        image = on_position(disp.apply_array, pos)
        assert on_position(disp.unapply_array, image) == pos
        assert all(type(c) is int for c in image)
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
    image, weight = on_position(pmap.rho_array, pos), on_position(pmap.sigma_array, pos)
    assert image == rho and weight == sigma
    assert all(type(c) is int for c in image) and type(weight) is int
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

    @pytest.mark.parametrize(
        "k,l,named", [(2.5, 1, "k"), (2, 1.0, "l"), (True, 0, "k"), (1, False, "l"), ("2", 1, "k")]
    )
    def test_refuses_non_integers(self, k, l, named):
        for build in (bezout, lattice_quotient):
            with pytest.raises(InvalidParameter, match=f"^{named} must be an integer"):
                build(k, l)

    def test_unimodular_matrix_inverse(self):
        for k, l in [(1, 0), (2, 1), (3, 5), (-4, 7)]:
            pair = bezout(k, l)
            m = np.array([[k, l], [-pair.v, pair.u]], dtype=object)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert det == 1
            minv = np.array([[pair.u, -l], [pair.v, k]], dtype=object)
            assert (m @ minv == np.eye(2, dtype=object)).all()


class TestLatticeQuotient:
    def test_numpy_coefficients_are_plain_ints(self):
        pm = lattice_quotient(np.int64(2), np.int32(1))
        assert pm.name == "lattice(k=2,l=1)"
        assert all(type(c) is int for c in pm.invert_rs(1, 1))
        assert pm.invert_rs(1, 1) == lattice_quotient(2, 1).invert_rs(1, 1)

    def test_projection_along_y(self):
        pm = lattice_quotient(1, 0)
        assert on_position(pm.rho_array, (7, -3)) == (7,)
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
        assert_sigma_additive(lattice_quotient(k, l), square_block(3))

    @pytest.mark.parametrize("k,l", [(1, 0), (2, 1), (3, 5)])
    def test_rho_is_homomorphic_to_induced(self, k, l):
        assert_rho_homomorphic(lattice_quotient(k, l), square_block(3))

    @pytest.mark.parametrize("k,l", [(1, 0), (2, 1), (3, 5)])
    def test_section_and_inversion(self, k, l):
        pm = lattice_quotient(k, l)
        for r in range(-5, 6):
            assert on_position(pm.rho_array, pm.section((r,))) == (r,)
            for s in range(-5, 6):
                p = pm.invert_rs(r, s)
                assert on_position(pm.rho_array, p) == (r,)
                assert on_position(pm.sigma_array, p) == s


class TestCyclicQuotient:
    def test_mod_convention(self):
        pm = cyclic_quotient(4)
        assert pm.rho_array(np.array([[7], [-1]])).tolist() == [[3], [3]]

    def test_degenerate_single_vertex(self):
        pm = cyclic_quotient(1)
        assert pm.rho_array(np.array([[5], [-9]])).tolist() == [[0], [0]]

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
        assert on_position(pm.sigma_array, (-7,)) == -7
        assert pm.sigma_c == {"R": 1, "L": -1}

    def test_rho_is_homomorphic_to_induced(self):
        assert_rho_homomorphic(cyclic_quotient(4), np.arange(-9, 10)[:, None])


@pytest.mark.parametrize(
    "pmap,window",
    [
        (cyclic_quotient(5), [(i,) for i in range(-9, 10)]),
        (llattice_quotient(), [(i, j) for i in range(-3, 4) for j in range(-3, 4)]),
    ],
)
def test_sigma_additive_on_all_quotients(pmap, window):
    assert_sigma_additive(pmap, np.array(window, dtype=np.int64))


# The step weights in closed form: (-v, v, u, -u) from the Bezout pair (u, v)
# on the lattice, the jumps on the line, +-1 along the diagonals.
@pytest.mark.parametrize(
    "pmap, weights",
    [
        (lattice_quotient(1, 0), {"R": 0, "L": 0, "U": 1, "D": -1}),
        (lattice_quotient(1, 1), {"R": -1, "L": 1, "U": 0, "D": 0}),
        (lattice_quotient(2, 1), {"R": -1, "L": 1, "U": 0, "D": 0}),
        (lattice_quotient(3, 5), {"R": 1, "L": -1, "U": 2, "D": -2}),
        (lattice_quotient(-1, 1), {"R": -1, "L": 1, "U": 0, "D": 0}),
        (cyclic_quotient(4), {"R": 1, "L": -1}),
        (llattice_quotient(), {"a": 1, "b": -1}),
        (identity_map(lattice_2d()), {"R": 0, "L": 0, "U": 0, "D": 0}),
    ],
    ids=lambda x: getattr(x, "name", ""),
)
def test_step_weights_are_derived_from_sigma(pmap, weights):
    assert pmap.sigma_c == weights
    assert all(type(w) is int for w in pmap.sigma_c.values())


class TestLLatticeQuotient:
    def test_generator_images(self):
        pm = llattice_quotient()
        sp = pm.source
        assert on_position(pm.rho_array, (0, 0)) == (0,)
        assert on_position(pm.rho_array, displacement_apply(sp, (0, 0), "a")) == (1,)
        assert on_position(pm.rho_array, displacement_apply(sp, (0, 0), "b")) == (-1,)

    def test_diagonal_shift_everywhere(self):
        pm = llattice_quotient()
        coords = square_block(4)
        for label, shift in (("a", 1), ("b", -1)):
            moved = pm.rho_array(pm.source.displacement(label).apply_array(coords))
            np.testing.assert_array_equal(moved, pm.rho_array(coords) + shift)


def test_space_mismatch_names_both_lines():
    lazy, doubled = lattice_quotient(1, 0).target, lattice_quotient(1, 1).target
    assert lazy.name == "z1(('R', 1), ('L', -1), ('U', 0), ('D', 0))"
    assert doubled.name == "z1(('R', 1), ('L', -1), ('U', 1), ('D', -1))"
    with pytest.raises(SpaceMismatch) as raised:
        check_same_space(lazy, doubled, "state")
    assert str(raised.value) == f"state is on {lazy.name!r}, expected {doubled.name!r}"
    with pytest.raises(SpaceMismatch, match="^state is on 'z2', expected 'z1'$"):
        check_same_space(lattice_2d(), line(), "state")
    check_same_space(lazy, lattice_quotient(1, 0).target, "state")


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
        before = bad.rho_array(np.array([x, y]))
        after = bad.rho_array(disp.apply_array(np.array([x, y])))
        assert (before[0] == before[1]).all() != (after[0] == after[1]).all()
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
        assert window.tolist() == [[i] for i in range(-3, 4)]

    def test_reachable_window_llattice(self):
        sp = llattice()
        window = reachable_window(sp, [(0, 0)], 2)
        assert (np.abs(window).sum(axis=1) <= 2).all()

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
            frontier = {
                on_position(d.apply_array, p) for p in frontier for d in space.displacements
            } - seen
            seen |= frontier
        window = reachable_window(space, start, steps)
        assert window.dtype == np.int64 and window.shape == (len(seen), space.dimension)
        assert np.array_equal(group_rows(window)[0], window)  # sorted and distinct
        assert window.tolist() == [list(p) for p in sorted(seen)]
        # a block start, in any order and with repeats, is the same start
        block = np.array(start[::-1] * 2, dtype=np.int64)
        assert np.array_equal(reachable_window(space, block, steps), window)

    def test_reachable_window_empty_start(self):
        window = reachable_window(lattice_2d(), [], 5)
        assert window.shape == (0, 2) and window.dtype == np.int64

    def test_reachable_window_hops_past_int64(self):
        top = 2**63 - 1
        assert reachable_window(line(), [(top,)], 0).dtype == np.int64
        window = reachable_window(line(), [(top,)], 1)
        assert window.dtype == object and window.tolist() == [[top - 1], [top], [top + 1]]

    @pytest.mark.parametrize("steps", [-1, True, 2.5, 3.0, "3"])
    def test_reachable_window_refuses_a_bad_step_count(self, steps):
        with pytest.raises(InvalidParameter, match="step count"):
            reachable_window(line(), [(0,)], steps)

    def test_reachable_window_takes_numpy_step_counts(self):
        by_numpy = reachable_window(line(), [(0,)], np.int64(2))
        assert np.array_equal(by_numpy, reachable_window(line(), [(0,)], 2))

    @pytest.mark.parametrize(
        "start, far",
        [
            ([(0,), (2**63,)], 2**63),
            (np.array([[0], [2**63]], dtype=object), 2**63),
            (np.array([[0], [2**64 - 1]], dtype=np.uint64), 2**64 - 1),
            ([(0,), (-(2**63),)], -(2**63)),  # fits int64, but not its symmetric range
        ],
    )
    def test_a_start_beyond_int64_is_exact(self, start, far):
        window = reachable_window(line(), start, 1)
        assert window.dtype == object
        assert window.tolist() == sorted([[-1], [0], [1], [far - 1], [far], [far + 1]])

    @pytest.mark.parametrize(
        "start, named",
        [
            ([(0,), (0.5,)], (0.5,)),
            ([(1.0,)], (1.0,)),
            ([(True,)], (True,)),
            (np.array([[1], [0.5]], dtype=object), (0.5,)),
            (np.array([[0], [0.5]]), (0.0,)),  # a float block is refused whole
            (np.array([[False]]), (False,)),
        ],
    )
    def test_a_start_that_is_not_integral_is_named(self, start, named):
        # As a tuple, whatever form the start came in, and before a hop.
        with pytest.raises(InvalidPosition, match=re.escape(f"position {named} ")):
            reachable_window(line(), start, 1)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16])
    def test_reachable_window_takes_any_integer_block(self, dtype):
        block = np.array([[3], [1]], dtype=dtype)
        by_tuples = reachable_window(line(), [(3,), (1,)], 2)
        assert np.array_equal(reachable_window(line(), block, 2), by_tuples)


def _plain_walk(space):
    return WalkSpec(space, CoinAssignment.homogeneous(np.eye(space.coin_dimension)))


# Every reader of a window of source positions, on a space with its identity map.
WINDOW_READERS = {
    "reachable_window": lambda space, window: reachable_window(space, window, 1),
    "check_rho_consistency": lambda space, window: check_rho_consistency(
        identity_map(space), window
    ),
    "check_coin_homogeneity": lambda space, window: check_coin_homogeneity(
        _plain_walk(space), identity_map(space), window
    ),
    "plan_reconstruction": lambda space, window: plan_reconstruction(identity_map(space), window),
    "reconstruct_support": lambda space, window: reconstruct_support(
        [(0.0, state_new(space, [((0,) * space.dimension, np.eye(space.coin_dimension)[0])]))],
        identity_map(space),
        window,
    ),
}


@pytest.mark.parametrize("read", WINDOW_READERS.values(), ids=WINDOW_READERS.keys())
@pytest.mark.parametrize(
    "space, window, named",
    [
        (lattice_2d(), [(0.5, 0), (0.7, 0)], (0.5, 0)),  # not truncated to (0, 0)
        (line(), [(0,), (True,)], (True,)),
        (lattice_2d(), [(0, 0), (1,)], (1,)),
        (line(), [(0, 0)], (0, 0)),  # not a bare reshape error
        (line(), np.array([[0, 0]]), (0, 0)),
        (circle(4), [(7,)], (7,)),  # not a window around an off-circle position
        (circle(4), [(2,), (-1,)], (-1,)),
        (circle(4), np.array([[3], [4]]), (4,)),
        (circle(2**70), [(2**70,)], (2**70,)),
    ],
    ids=lambda x: repr(x) if isinstance(x, (list, tuple)) else None,
)
def test_every_window_reader_refuses_a_position_off_the_space(read, space, window, named):
    with pytest.raises(InvalidPosition, match=re.escape(f"{named} ")):
        read(space, window)


def test_a_window_block_has_two_axes():
    with pytest.raises(InvalidPosition, match=re.escape("shape (n, 1), not (2,)")):
        reachable_window(line(), np.array([0, 1]), 1)


@pytest.mark.parametrize("step", [1.5, 1.0, True, "1"])
@pytest.mark.parametrize("build", [line, lambda jumps: circle(4, jumps)])
def test_jump_steps_must_be_integers(build, step):
    with pytest.raises(InvalidParameter, match="step of jump 'R' must be an integer"):
        build([("R", step), ("L", -1)])


def test_numpy_jump_steps_are_accepted():
    jumps = [("R", np.int64(2)), ("L", np.int32(-1))]
    assert line(jumps).name == line([("R", 2), ("L", -1)]).name == "z1(('R', 2), ('L', -1))"
    assert [type(d.delta[0]) for d in line(jumps).displacements] == [int, int]
    assert circle(5, jumps).name == circle(5, [("R", 2), ("L", -1)]).name
    assert line([("R", np.int64(1)), ("L", np.int8(-1))]).name == "z1"


@pytest.mark.parametrize("n", [0, -4, True, 2.5, 4.0])
def test_circle_refuses_a_bad_size(n):
    with pytest.raises(InvalidParameter, match="circle size"):
        circle(n)


def test_a_finite_space_is_a_cycle():
    with pytest.raises(InvalidParameter, match="a finite space is a cycle"):
        PositionSpace("torus", 2, lattice_2d().displacements, 4)
    assert circle(3).positions == ((0,), (1,), (2,))


TOP = spaces.COORD_LIMIT  # 2**63 - 1
_HUGE_SIZES = [10**18, TOP, TOP + 1, 2**70]


class TestHugeCircles:
    """A circle is its size: any size builds at once, and its modular steps
    take exact Python integers once the size is beyond int64."""

    @pytest.mark.parametrize("n", _HUGE_SIZES)
    def test_membership_is_the_size(self, n):
        space = circle(n)
        assert space.size == n and space.name == f"circle{n}"
        assert space.contains((0,)) and space.contains((n - 1,))
        assert not space.contains((n,)) and not space.contains((-1,))

    @pytest.mark.parametrize("n", _HUGE_SIZES)
    @pytest.mark.parametrize("end", ["first", "last"])
    def test_evolve_matches_the_recurrence(self, n, end):
        spec = WalkSpec(circle(n), CoinAssignment.homogeneous(hadamard_coin()))
        start = (0,) if end == "first" else (n - 1,)
        psi = state_new(spec.space, [(start, np.array([1, 1j]) / math.sqrt(2))])
        final = evolve_both(spec, psi, 3)
        expected = {(start[0] + s) % n for s in (-3, -1, 1, 3)}
        assert set(x for (x,) in final.support) == expected

    @pytest.mark.parametrize("n", _HUGE_SIZES)
    def test_cyclic_quotient_folds_exactly(self, n):
        pm = cyclic_quotient(n)
        assert pm.rho_array(exact_block([(-1,), (n + 5,)], 1)).tolist() == [[n - 1], [5]]
        assert pm.rho_array(np.array([[-1], [TOP]], dtype=np.int64)).tolist() == [[n - 1], [TOP % n]]




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


    def test_exact_blocks_are_sorted_not_boxed(self, monkeypatch):
        calls = []
        in_box = spaces._group_in_box
        monkeypatch.setattr(
            spaces, "_group_in_box", lambda *args: calls.append(1) or in_box(*args)
        )
        rows = (np.arange(256).reshape(128, 2) % 5).astype(object) + 2**70
        sites, inverse = group_rows(rows)
        expected = sorted(set(map(tuple, rows.tolist())))
        assert sites.dtype == object and list(map(tuple, sites.tolist())) == expected
        assert inverse.tolist() == [expected.index(tuple(row)) for row in rows.tolist()]
        assert not calls


@pytest.mark.parametrize(
    "far, exact", [(TOP, False), (-TOP, False), (TOP + 1, True), (-TOP - 1, True), (2**70, True)]
)
def test_packed_blocks_hold_exact_integers_past_int64(far, exact):
    block = spaces.pack_positions([(0,), (far,)], 1)
    assert (block.dtype == object) == exact and block.tolist() == [[0], [far]]
    assert all(type(c) is int for c in block.ravel()) == exact


def _negate(c):
    return -c


def _hadamard_at(p):
    return np.array([[1, 1], [1, -1]]) / math.sqrt(2)


_COIN = CoinAssignment(2, None, _hadamard_at)
_MAP_FIELDS = (line(), line(), _negate, _negate, _negate, None, "neg")

# One record of every public record class: its fields in constructor order
# and a value for each.
RECORDS = [
    (Displacement, "label apply_array unapply_array delta reach",
     ("x", _negate, _negate, (2, -3), 3)),
    (PositionSpace, "name dimension displacements size", ("circle5", 1, circle(5).displacements, 5)),
    (BezoutPair, "u v", (2, -1)),
    (ProjectionMap, "source target rho_array sigma_array section invert_rs name", _MAP_FIELDS),
    (ConsistencyReport, "passed positions pairs counterexample",
     (False, 3, 3, ((0,), (1,), "R", "forward"))),
    (CoinAssignment, "dimension matrix matrix_fn", (2, None, _hadamard_at)),
    (StepPhase, "phi sigma_c", (0.5, {"R": 1, "L": -1})),
    (WalkSpec, "space coin phase", (line(), _COIN, None)),
    (HomogeneityReport, "passed classes witness", (False, 2, ((0,), (1,), 0.5))),
    (CommutationReport, "steps residuals max_residual passed psi0_norm",
     (2, (0.0, 1e-3), 1e-3, False, 1.0)),
    (ScenarioDescriptor, "name walk pmap phi distinguished_states",
     ("neg", WalkSpec(line(), _COIN), ProjectionMap(*_MAP_FIELDS), 0.0, {})),
]


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=lambda x: getattr(x, "__name__", ""))
class TestRecords:
    """The public record classes keep the contract of frozen dataclasses."""

    def test_fields_by_position_or_keyword(self, cls, names, values):
        names = names.split()
        record = cls(*values)
        assert [getattr(record, f) for f in names] == list(values)
        assert cls(**dict(zip(names, values))) == record
        assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record

    def test_equal_fields_compare_and_hash_equal(self, cls, names, values):
        record, twin = cls(*values), cls(*values)
        assert record == twin and not record != twin
        assert record != values  # nor equal to a tuple of its fields
        if all(isinstance(v, Hashable) for v in values):
            assert hash(record) == hash(twin)
        else:  # an unhashable field makes the record unhashable
            with pytest.raises(TypeError):
                hash(record)

    def test_repr_lists_the_fields(self, cls, names, values):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(names.split(), values))
        assert repr(cls(*values)) == f"{cls.__name__}({shown})"

    def test_frozen(self, cls, names, values):
        record = cls(*values)
        for f in names.split():
            with pytest.raises(AttributeError):
                setattr(record, f, None)
            with pytest.raises(AttributeError):
                delattr(record, f)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert [getattr(record, f) for f in names.split()] == list(values)

    def test_bad_arguments_raise_type_error(self, cls, names, values):
        first, *rest = names.split()
        for args, kwargs in [
            ((), dict(zip(rest, values[1:]))),  # the first field missing
            (values, {"unknown": 1}),
            (values, {first: values[0]}),  # repeated
            ((*values, None), {}),  # one too many
        ]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


def test_records_with_other_fields_differ():
    assert BezoutPair(2, -1) != BezoutPair(-1, 2)
    assert ConsistencyReport(True, 1, 0) != ConsistencyReport(True, 1, 1)
    assert CommutationReport(1, (0.0,), 0.0, True, 1.0) != HomogeneityReport(1, (0.0,), 0.0)


def test_record_defaults():
    assert ConsistencyReport(True, 1, 0).counterexample is None
    assert HomogeneityReport(True, 1).witness is None
    assert CoinAssignment(2).matrix is None and CoinAssignment(2).matrix_fn is None
    assert WalkSpec(line(), _COIN).phase is None
    space = PositionSpace("z1", 1, line().displacements)
    assert space.size is None and space.positions is None
    pmap = ProjectionMap(line(), line(), _negate)
    assert (pmap.sigma_array, pmap.sigma_c, pmap.section, pmap.invert_rs, pmap.name) == (
        None, None, None, None, ""
    )

"""Sparse state construction, norms, inner products, and serialization."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwproj import (
    DimensionMismatch,
    WalkState,
    circle,
    InvalidParameter,
    InvalidPosition,
    SpaceMismatch,
    add,
    diff_norm,
    distribution_csv,
    from_json_dict,
    inner,
    json_chunks,
    json_text,
    lattice_2d,
    lattice_quotient,
    llattice,
    line,
    max_abs_difference,
    norm,
    position_distribution,
    scale,
    state_new,
    to_json_dict,
)
from qwproj.spaces import _position_block
from conftest import random_sparse_state

Z2 = lattice_2d()
Z1 = line()

R4 = (1, 0, 0, 0)
L4 = (0, 1, 0, 0)


@st.composite
def position_mappings(draw):
    """A space and a mapping from some of its positions to coin vectors:
    planar int64 positions, line positions up to +-2**70 or circle
    positions, in any order, with finite amplitudes of either zero sign."""
    space, coords = draw(st.sampled_from([
        (Z2, st.integers(-(2**63 - 1), 2**63 - 1)),
        (Z1, st.integers(-(2**70), 2**70)),
        (circle(5), st.integers(0, 4)),
    ]))
    positions = draw(st.lists(st.tuples(*[coords] * space.dimension), max_size=8, unique=True))
    parts = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=2 * space.coin_dimension, max_size=2 * space.coin_dimension)
    return space, {p: np.array(draw(parts)).view(np.complex128) for p in positions}


class TestStateNew:
    def test_single_basis_vector(self):
        psi = state_new(Z2, [((0, 0), R4)])
        assert norm(psi) == 1.0

    def test_duplicate_positions_sum(self):
        psi = state_new(Z2, [((0, 0), R4), ((0, 0), L4)])
        assert len(psi.support) == 1
        np.testing.assert_array_equal(psi.support[(0, 0)], [1, 1, 0, 0])

    def test_wrong_coin_length(self):
        with pytest.raises(DimensionMismatch):
            state_new(Z2, [((0, 0), (1, 0, 0))])

    def test_position_outside_space(self):
        with pytest.raises(InvalidPosition):
            state_new(Z2, [((0,), R4)])
        with pytest.raises(InvalidPosition):
            state_new(Z2, [((0.5, 0), R4)])
        with pytest.raises(InvalidPosition):
            state_new(Z2, [((True, 0), R4)])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameter, match=r"non-finite amplitude at \(0, 0\)"):
            state_new(Z2, [((0, 0), (float("nan"), 0, 0, 0))])

    def test_constructor_checks_a_mapping(self):
        with pytest.raises(InvalidPosition, match=r"\(7,\) is not a position of space 'circle4'"):
            WalkState(circle(4), {(7,): [1, 0]})
        with pytest.raises(DimensionMismatch, match=r"^coin vector at \(1,\) has length 3, space needs 2$"):
            WalkState(line(), {(0,): [1, 0], (1,): [1, 0, 0]})
        with pytest.raises(DimensionMismatch, match=r"^coin vector at \(0,\) has length 3, space needs 2$"):
            WalkState(line(), {(1,): [1, 0, 0], (0,): [1, 0, 0]})
        with pytest.raises(DimensionMismatch, match=r"at \(0,\) has length 2, space needs 2$"):
            WalkState(line(), {(0,): [[1, 0]]})
        with pytest.raises(InvalidParameter, match=r"non-finite amplitude at \(2,\)"):
            WalkState(circle(4), {(1,): [1, 0], (2,): [0, math.inf]})

    def test_constructor_reads_positions_through_the_window_reader(self):
        with pytest.raises(InvalidPosition, match=r"^position \(0\.5, 0\) has a coordinate that"):
            WalkState(Z2, {(0, 0): R4, (0.5, 0): R4})
        with pytest.raises(InvalidPosition, match=r"^position \(1, 2\) has 2 coordinates, not 1$"):
            WalkState(line(), {(1, 2): [1, 0], (0,): [1, 0, 0]})
        # Off a finite space, the reader names the first or the last position in order.
        with pytest.raises(InvalidPosition, match=r"^\(-1,\) is not a position of space 'circle4'$"):
            WalkState(circle(4), {(2,): [1, 0], (7,): [1, 0], (-1,): [1, 0]})

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(drawn=position_mappings())
    def test_mapping_is_read_as_a_window(self, drawn):
        # The constructor takes its coordinate block, and so its row order,
        # from the reader of every window: bitwise the state from_blocks
        # builds on the reader's block with the vectors in its row order.
        space, mapping = drawn
        state = WalkState(space, mapping)
        coords = _position_block(mapping, space)
        rows = [mapping[p] for p in map(tuple, coords.tolist())]
        coins = np.array(rows, dtype=np.complex128).reshape(len(rows), space.coin_dimension)
        expected = WalkState.from_blocks(space, coords, coins)
        assert state.coords.dtype == expected.coords.dtype
        assert state.coords.strides == expected.coords.strides
        assert state.coords.tolist() == expected.coords.tolist()
        assert state.coords.tolist() == [list(p) for p in sorted(mapping)]
        assert state.coins.strides == expected.coins.strides
        assert state.coins.tobytes() == expected.coins.tobytes()

    def test_non_numeric_coin_entry_is_named(self):
        for build in (
            lambda: WalkState(line(), {(0,): ["a", 0]}),
            lambda: WalkState(line(), {(1,): [1, 0], (0,): [0, "1+"]}),
            lambda: state_new(line(), [((0,), [1, 0]), ((0,), ["a", 0])]),
            lambda: state_new(Z2, [((2, 3), [1, {}, 0, 0])]),
        ):
            with pytest.raises(InvalidParameter, match=r"coin vector at \(\d+,( \d+)?\) .* not a number"):
                build()

    def test_norm_invariant_under_permutation(self, rng):
        assignments = [
            (tuple(rng.integers(-3, 4, size=2)), rng.normal(size=4) + 1j * rng.normal(size=4))
            for _ in range(6)
        ]
        base = norm(state_new(Z2, assignments))
        for _ in range(5):
            perm = [assignments[i] for i in rng.permutation(len(assignments))]
            assert norm(state_new(Z2, perm)) == pytest.approx(base, abs=1e-14)


class TestNormAndInner:
    def test_norm_examples(self):
        assert norm(state_new(Z2, [])) == 0.0
        two_site = state_new(
            Z2, [((0, 0), np.array(R4) / math.sqrt(2)), ((1, 1), np.array(R4) / math.sqrt(2))]
        )
        assert norm(two_site) == pytest.approx(1.0, abs=1e-15)

    def test_norm_at_any_scale(self, rng):
        psi = random_sparse_state(Z2, rng, points=6)
        # an ordinary sum of squares gives the norm as it is
        assert norm(psi) == math.sqrt(float(np.vdot(psi.coins, psi.coins).real))
        for k in range(-300, 301, 25):
            c = 10.0**k
            assert norm(scale(c, psi)) == pytest.approx(c, rel=1e-14)
            assert diff_norm(scale(c, psi), scale(-c, psi)) == pytest.approx(2 * c, rel=1e-14)

    def test_norm_of_extreme_entries(self):
        def at_origin(*coin):
            return state_new(Z1, [((0,), coin)])

        for z in (1e-320, 1e-200, 1e200, 1.5e308):
            assert norm(at_origin(z, 0)) == z
        assert norm(at_origin(3e-320, 4e-320)) == pytest.approx(5e-320, rel=1e-3)
        assert norm(at_origin(3e200, 4e200)) == pytest.approx(5e200, rel=1e-15)
        assert norm(at_origin(1.5e308, 1.5e308)) == math.inf
        assert norm(at_origin(0, 0)) == 0.0

    def test_inner_orthogonal_positions(self):
        a = state_new(Z1, [((0,), (1, 0))])
        b = state_new(Z1, [((1,), (1, 0))])
        assert inner(a, a) == 1
        assert inner(a, b) == 0

    def test_inner_conjugate_linear_in_first(self):
        a = state_new(Z1, [((0,), (1j, 0))])
        b = state_new(Z1, [((0,), (1, 0))])
        assert inner(a, b) == pytest.approx(-1j)
        assert inner(b, a) == pytest.approx(1j)

    def test_inner_linear_in_second(self, rng):
        a = state_new(Z1, [((0,), rng.normal(size=2) + 1j * rng.normal(size=2))])
        b = state_new(Z1, [((0,), rng.normal(size=2) + 1j * rng.normal(size=2))])
        z = 0.3 - 1.7j
        assert inner(a, scale(z, b)) == pytest.approx(z * inner(a, b))
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))

    def test_inner_equals_norm_squared(self, rng):
        from conftest import random_sparse_state

        for _ in range(10):
            psi = random_sparse_state(Z2, rng, points=5, normalized=False)
            assert inner(psi, psi) == pytest.approx(norm(psi) ** 2, abs=1e-12)

    def test_space_mismatch(self):
        a = state_new(Z1, [((0,), (1, 0))])
        b = state_new(Z2, [((0, 0), R4)])
        with pytest.raises(SpaceMismatch):
            inner(a, b)


class TestDistribution:
    def test_coin_marginalized(self):
        psi = state_new(Z1, [((0,), (1 / math.sqrt(2), 1 / math.sqrt(2)))])
        assert position_distribution(psi) == {(0,): pytest.approx(1.0)}

    def test_two_positions(self):
        psi = state_new(
            Z1, [((0,), (1 / math.sqrt(2), 0)), ((1,), (0, 1 / math.sqrt(2)))]
        )
        dist = position_distribution(psi)
        assert dist[(0,)] == pytest.approx(0.5) and dist[(1,)] == pytest.approx(0.5)

    def test_empty(self):
        assert position_distribution(state_new(Z1, [])) == {}

    def test_sums_to_norm_squared(self, rng):
        from conftest import random_sparse_state

        for _ in range(20):
            psi = random_sparse_state(Z2, rng, points=5, normalized=False)
            total = sum(position_distribution(psi).values())
            assert total == pytest.approx(norm(psi) ** 2, abs=1e-12)
            assert all(v >= 0 for v in position_distribution(psi).values())


class TestArithmetic:
    def test_add_sub_roundtrip(self, rng):
        from conftest import random_sparse_state

        a = random_sparse_state(Z2, rng)
        b = random_sparse_state(Z2, rng)
        back = add(add(a, b), scale(-1.0, b))
        from qwproj import max_abs_difference

        assert max_abs_difference(back, a) < 1e-15


class TestSerialization:
    def test_json_round_trip(self, rng):
        from conftest import random_sparse_state

        psi = random_sparse_state(Z2, rng, points=5)
        text = json_text(psi)
        back = from_json_dict(Z2, json.loads(text))
        from qwproj import max_abs_difference

        assert max_abs_difference(back, psi) == 0.0

    def test_json_space_name_checked(self):
        psi = state_new(Z1, [((0,), (1, 0))])
        data = json.loads(json_text(psi))
        with pytest.raises(SpaceMismatch):
            from_json_dict(Z2, data)

    def test_duplicate_position_in_dump_rejected(self):
        data = {
            "space": "z2",
            "support": [
                {"pos": [1, -2], "coin": [[1, 0], [0, 0], [0, 0], [0, 0]]},
                {"pos": [0, 0], "coin": [[0, 0], [1, 0], [0, 0], [0, 0]]},
                {"pos": [1, -2], "coin": [[0, 0], [0, 0], [1, 0], [0, 0]]},
            ],
        }
        with pytest.raises(InvalidPosition, match=r"\(1, -2\)"):
            from_json_dict(Z2, data)

    @pytest.mark.parametrize(
        "data, where",
        [
            ([{"space": "z1"}], "JSON object, not list"),
            ({"space": "z1", "support": 5}, '"support" is a list'),
            ({"space": "z1"}, '"support" is a list'),
            ({"space": "z1", "support": [{"pos": [0], "coin": [[1, 0], [0, 0]]}, 5]}, "entry 1"),
            ({"space": "z1", "support": [{"pos": 5, "coin": [[1, 0], [0, 0]]}]}, "entry 0"),
            ({"space": "z1", "support": [{"pos": [[5]], "coin": [[1, 0], [0, 0]]}]}, "entry 0"),
            ({"space": "z1", "support": [{"pos": [5], "coin": [1, 2]}]}, "entry 0"),
            ({"space": "z1", "support": [{"pos": [5], "coin": [["x", 0], [0, 0]]}]}, "entry 0"),
            ({"space": "z1", "support": [{"pos": [5], "coin": [[1, 0, 0], [0, 0]]}]}, "entry 0"),
            ({"space": "z1", "support": [{"coin": [[1, 0], [0, 0]]}]}, "entry 0"),
            # JSON true is not the amplitude 1, as it is not a coordinate 1
            ({"space": "z1", "support": [{"pos": [5], "coin": [[True, 0], [0, 0]]}]},
             "entry 0 .*amplitude part true is a bool"),
            ({"space": "z1", "support": [{"pos": [5], "coin": [[1, 0], [0, False]]}]},
             "entry 0 .*amplitude part false is a bool"),
            ({"space": "z1", "support": [{"pos": [5], "coin": [[10**400, 0], [0, 0]]}]},
             "entry 0 has an amplitude beyond the float range"),
        ],
    )
    def test_malformed_dump_rejected(self, data, where):
        with pytest.raises(InvalidParameter, match=where):
            from_json_dict(Z1, data)

    def test_state_new_still_sums_duplicates(self):
        psi = state_new(Z1, [((3,), (1, 0)), ((3,), (0.5, 1j))])
        assert np.array_equal(psi.support[(3,)], [1.5, 1j])
        # summands are checked before they are added, so none broadcasts
        for vectors in [[(1,), (1, 0)], [(1, 0), (1,)]]:
            with pytest.raises(DimensionMismatch, match=r"coin vector at \(3,\) has length 1"):
                state_new(Z1, [((3,), v) for v in vectors])

    def test_coin_length_in_a_dump_names_the_position(self):
        data = {"space": "z1", "support": [{"pos": [5], "coin": [[1, 0], [0, 0], [0, 0]]}]}
        with pytest.raises(DimensionMismatch, match=r"^coin vector at \(5,\) has length 3"):
            from_json_dict(Z1, data)

    def test_dump_of_another_line_is_refused(self):
        lazy, doubled = lattice_quotient(1, 0).target, lattice_quotient(1, 1).target
        data = to_json_dict(state_new(lazy, [((0,), R4)]))
        with pytest.raises(SpaceMismatch, match=re.escape(f"{lazy.name!r}, expected {doubled.name!r}")):
            from_json_dict(doubled, data)
        back = from_json_dict(lattice_quotient(1, 0).target, data)
        np.testing.assert_array_equal(back.coins, [R4])

    def test_dump_shape(self):
        psi = state_new(Z1, [((2,), (0.5, -0.5j))])
        data = json.loads(json_text(psi))
        assert data == {
            "space": "z1",
            "support": [{"pos": [2], "coin": [[0.5, 0.0], [0.0, -0.5]]}],
        }

    def test_csv_format(self):
        psi = state_new(
            Z2, [((1, -2), (0.5, 0, 0, 0)), ((-1, 3), (0, 0.5, 0, 0))]
        )
        text = distribution_csv(psi)
        assert text == "x0,x1,p\n-1,3,0.25\n1,-2,0.25\n"
        assert "\r" not in text

    def test_csv_17_digits(self):
        psi = state_new(Z1, [((0,), (1 / 3, 0))])
        assert distribution_csv(psi).splitlines()[1] == "0,0.1111111111111111"


def dict_max_abs_difference(a, b):
    """The elementwise definition over the union of the two support views."""
    zero = np.zeros(a.coin_dimension, dtype=np.complex128)
    worst = 0.0
    for pos in set(a.support) | set(b.support):
        d = a.support.get(pos, zero) - b.support.get(pos, zero)
        worst = max(worst, float(np.max(np.abs(d))))
    return worst


def per_entry_dump(state):
    """The dump built entry by entry from the support view."""
    entries = []
    for pos in sorted(state.support):
        vec = state.support[pos]
        entries.append(
            {
                "pos": [int(c) for c in pos],
                "coin": [[float(z.real), float(z.imag)] for z in vec],
            }
        )
    return {"space": state.space.name, "support": entries}


def signed_zero_state():
    return state_new(
        Z2,
        [
            ((0, 0), (complex(-0.0, 0.0), complex(0.0, -0.0), -0.0, 0.5)),
            ((2, -1), (0, 0, 0, 0)),
            ((-3, 4), (complex(-0.0, -0.0), 1e-300, -1.5e17j, 0.1 + 0.2j)),
        ],
    )


class TestBlockComparisons:
    """max_abs_difference on the blocks equals the dict-based definition."""

    def test_partial_overlap_and_explicit_zeros(self, rng):
        for _ in range(20):
            a = random_sparse_state(Z2, rng, points=6, radius=2, zeros=2)
            shared = [(p, rng.normal(size=4) + 1j * rng.normal(size=4)) for p in a.support]
            own = [((9, i), rng.normal(size=4) * (i > 0)) for i in range(3)]
            b = state_new(Z2, shared[::2] + own)
            assert max_abs_difference(a, b) == dict_max_abs_difference(a, b)
            assert max_abs_difference(b, a) == dict_max_abs_difference(b, a)

    def test_empty_side(self, rng):
        a = random_sparse_state(Z2, rng, zeros=1)
        empty = state_new(Z2, [])
        assert max_abs_difference(a, empty) == dict_max_abs_difference(a, empty)
        assert max_abs_difference(empty, a) == dict_max_abs_difference(empty, a)
        assert max_abs_difference(empty, empty) == 0.0

    def test_signed_zeros(self):
        a = signed_zero_state()
        b = scale(-1.0, a)
        assert max_abs_difference(a, b) == dict_max_abs_difference(a, b)
        assert max_abs_difference(a, a) == 0.0


class TestBlockDump:
    """to_json_dict on the blocks gives byte-identical JSON."""

    @staticmethod
    def assert_same_dump(state):
        expected = json.dumps(per_entry_dump(state), sort_keys=True, indent=2)
        assert json.dumps(to_json_dict(state), sort_keys=True, indent=2) == expected

    def test_random_states(self, rng):
        for space in (Z2, Z1):
            for zeros in (0, 2):
                self.assert_same_dump(random_sparse_state(space, rng, points=7, zeros=zeros))

    def test_signed_and_explicit_zeros(self):
        state = signed_zero_state()
        self.assert_same_dump(state)
        self.assert_same_dump(scale(-1.0, state))
        self.assert_same_dump(state_new(Z2, []))

    def test_kernel_built_and_exact_states(self):
        from qwproj import CoinAssignment, WalkSpec, evolve, grover_coin

        spec = WalkSpec(Z2, CoinAssignment.homogeneous(grover_coin()))
        self.assert_same_dump(evolve(spec, signed_zero_state(), 3))
        beyond = WalkState(Z1, {(2**70,): (1, 0), (-(2**65),): (0.5, -0.5j)})
        self.assert_same_dump(beyond)


# (d, dim) = (1, 2), (2, 4), (2, 2), (1, 4)
WRITER_SPACES = (Z1, Z2, llattice(), lattice_quotient(1, 0).target)
AMPLITUDE = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300]),
)


@st.composite
def writer_states(draw):
    space = draw(st.sampled_from(WRITER_SPACES))
    limit = draw(st.sampled_from([8, 2**63 - 1, 2**70]))
    positions = draw(
        st.lists(
            st.tuples(*[st.integers(-limit, limit)] * space.dimension),
            max_size=6,
            unique=True,
        )
    )
    rows = []
    for _ in positions:
        if draw(st.booleans()):  # an explicit zero vector
            rows.append(np.zeros(space.coin_dimension, dtype=np.complex128))
        else:
            parts = draw(st.lists(AMPLITUDE, min_size=2 * space.coin_dimension,
                                  max_size=2 * space.coin_dimension))
            # Viewed, not summed as re + 1j*im, which would turn -0.0 into
            # 0.0 and (0.5, inf) into (nan, inf).
            rows.append(np.array(parts, dtype=np.float64).view(np.complex128))
    # The constructor refuses non-finite amplitudes; they reach a state
    # through with_coins, as through scale, and the writer renders them.
    order = sorted(range(len(positions)), key=positions.__getitem__)
    state = WalkState(space, dict.fromkeys(positions, np.zeros(space.coin_dimension)))
    coins = np.array([rows[i] for i in order], dtype=np.complex128)
    coins = coins.reshape(len(positions), space.coin_dimension)
    return state.with_coins(coins)


def reference_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class TestJsonWriter:
    """json_text is json.dumps(..., sort_keys=True, indent=2) + newline."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(writer_states())
    def test_state_text_equals_json_dumps(self, state):
        assert json_text(state) == reference_text(to_json_dict(state))

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(writer_states(), writer_states())
    def test_states_nested_in_a_document(self, a, b):
        doc = {"z": [a, {"inner": b}, -0.0], "a": a, "n": None, "s": "z2", "t": True}
        plain = {
            "z": [to_json_dict(a), {"inner": to_json_dict(b)}, -0.0],
            "a": to_json_dict(a),
            "n": None,
            "s": "z2",
            "t": True,
        }
        assert json_text(doc) == reference_text(plain)

    def test_documents_without_states(self):
        for doc in ({}, [], {"residuals": [1e-17, -0.0, 5e-324], "passed": False}, 3):
            assert json_text(doc) == reference_text(doc)

    @pytest.mark.parametrize("n", [255, 256, 257, 700])
    def test_states_in_several_pieces(self, n):
        rng = np.random.default_rng(n)
        coords = np.unique(rng.integers(-40, 40, size=(3 * n, 2)), axis=0)[:n]
        coins = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        coins[::7] = -0.0
        blocks = WalkState.from_blocks(Z2, coords, coins)
        beyond = WalkState(Z1, {(2**70 + i,): (complex(i, -i), 0.5) for i in range(n)})
        for state in (blocks, beyond):
            assert json_text(state) == reference_text(to_json_dict(state))
            doc = {"k": 2, "state": state, "tail": [state]}
            plain = {"k": 2, "state": to_json_dict(state), "tail": [to_json_dict(state)]}
            assert json_text(doc) == reference_text(plain)

    def test_pieces_hold_a_bounded_number_of_entries(self):
        rng = np.random.default_rng(0)
        coords = np.unique(rng.integers(-60, 60, size=(4000, 2)), axis=0)[:2000]
        state = WalkState.from_blocks(Z2, coords, np.full((2000, 4), 0.5 + 0j))
        pieces = list(json_chunks({"state": state}))
        assert len(pieces) > 2000 // 256
        assert max(piece.count('"pos"') for piece in pieces) <= 256

    def test_refusals(self):
        with pytest.raises(TypeError):
            json_chunks({"x": object()})  # before any piece is asked for
        with pytest.raises(TypeError):
            json_text({"x": object()})
        with pytest.raises(ValueError):
            json_text({"x": "\x00", "state": state_new(Z2, [])})

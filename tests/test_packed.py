"""The packed state layout, and property checks of the array kernels against
the dict-based reference paths."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwproj import (
    CoinAssignment,
    WalkSpec,
    WalkState,
    apply_step,
    evolve,
    evolve_recurrence,
    lattice_2d,
    line,
    norm,
    state_new,
)
from conftest import evolve_both, haar_unitary, on_position, random_sparse_state, walk_zoo

TOP = 2**63 - 1  # the int64 coordinate range is +-TOP
# Offsets near the origin, far beyond int64, and at its edge, where a walk
# leaves the int64 range while it runs.
OFFSET = st.one_of(
    st.integers(-(2**40), 2**40),
    st.sampled_from([2**70, -(2**70)]),
    st.integers(TOP - 10, TOP),
    st.integers(-TOP, -TOP + 10),
)
PROPERTY = settings(derandomize=True, max_examples=20, deadline=None)


def far_state(space, seed, offset, points=3, zeros=1):
    rng = np.random.default_rng(seed)
    return random_sparse_state(
        space, rng, points=points, radius=4, normalized=False, offset=offset, zeros=zeros
    )


class TestLayout:
    def test_rows_are_lexicographic_and_aligned(self):
        psi = state_new(
            lattice_2d(),
            [((1, -2), (1, 0, 0, 0)), ((-1, 5), (0, 1, 0, 0)), ((-1, -3), (0, 0, 1, 0))],
        )
        assert psi.coords.dtype == np.int64 and psi.coins.dtype == np.complex128
        assert psi.coords.tolist() == [[-1, -3], [-1, 5], [1, -2]]
        np.testing.assert_array_equal(psi.coins, np.eye(4)[[2, 1, 0]])
        assert list(psi.support) == [(-1, -3), (-1, 5), (1, -2)]

    def test_support_view_is_read_only(self):
        psi = state_new(line(), [((0,), (1, 0))])
        with pytest.raises(TypeError):
            psi.support[(1,)] = np.zeros(2)
        with pytest.raises(ValueError):
            psi.support[(0,)][0] = 2.0
        with pytest.raises(ValueError):
            psi.coins[0, 0] = 2.0
        with pytest.raises(AttributeError):
            psi.space = lattice_2d()

    def test_dict_constructor_copies(self):
        vec = np.array([1.0, 0.0], dtype=complex)
        psi = WalkState(line(), {(0,): vec})
        vec[0] = 5.0
        assert psi.support[(0,)][0] == 1.0

    def test_empty_state(self):
        empty = state_new(lattice_2d(), [])
        assert empty.coords.shape == (0, 2) and empty.coins.shape == (0, 4)
        assert norm(empty) == 0.0 and dict(empty.support) == {}


class TestExplicitZeros:
    def test_step_keeps_zero_vectors(self):
        spec = walk_zoo()[1]  # Hadamard line
        psi = state_new(line(), [((0,), (1, 0))])
        out = apply_step(spec, psi)  # the L component is zero: (-1,) gets a zero vector
        assert out.coords.tolist() == [[-1], [1]]
        np.testing.assert_array_equal(out.coins, [[0, 0], [1, 0]])

    @pytest.mark.parametrize("index", range(len(walk_zoo())))
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 6))
    @PROPERTY
    def test_zero_vectors_survive(self, index, seed, steps):
        spec = walk_zoo()[index]
        psi = far_state(spec.space, seed, (0, 0), points=4, zeros=2)
        evolved = evolve(spec, psi, steps)
        # Every site reached in exactly `steps` hops stays, whatever it holds.
        reached = set(psi.support)
        for _ in range(steps):
            reached = {
                on_position(d.apply_array, p) for p in reached for d in spec.space.displacements
            }
        assert set(evolved.support) == reached
        # Both engines keep every reached site, zero vectors included.  Which
        # slots cancel to an exact zero may differ between them by rounding.
        assert set(evolved.support) == set(evolve_recurrence(spec, psi, steps).support)


@pytest.mark.parametrize("index", range(len(walk_zoo())))
@given(
    seed=st.integers(0, 2**32 - 1),
    offset=st.tuples(OFFSET, OFFSET),
    steps=st.integers(0, 12),
)
@example(seed=0, offset=(2**70, -(2**70)), steps=12)
@example(seed=1, offset=(TOP - 4, -(TOP - 4)), steps=12)
@example(seed=2, offset=(-(TOP - 4), TOP - 4), steps=12)
@PROPERTY
def test_engines_agree_far_from_origin(index, seed, offset, steps):
    spec = walk_zoo()[index]
    evolve_both(spec, far_state(spec.space, seed, offset), steps)


@pytest.mark.parametrize("index", range(len(walk_zoo())))
@given(
    seed=st.integers(0, 2**32 - 1),
    offset=st.tuples(OFFSET, OFFSET),
    steps=st.integers(0, 8),
    positional=st.booleans(),
)
@example(seed=3, offset=(2**70, TOP - 2), steps=8, positional=True)
@PROPERTY
def test_engines_agree_under_haar_coins(index, seed, offset, steps, positional):
    space = walk_zoo()[index].space
    rng = np.random.default_rng(seed)
    mats = [haar_unitary(space.coin_dimension, rng) for _ in range(3)]
    if positional:  # one of three coins, by the sum of the coordinates mod 3
        coin = CoinAssignment.positional(lambda p: mats[sum(p) % 3], space.coin_dimension)
    else:
        coin = CoinAssignment.homogeneous(mats[0])
    evolve_both(WalkSpec(space, coin), far_state(space, seed, offset), steps)

"""Sparse state construction, norms, inner products, and serialization."""

import json
import math

import numpy as np
import pytest

from qwproj import (
    DimensionMismatch,
    InvalidPosition,
    SpaceMismatch,
    add,
    distribution_csv,
    from_json_dict,
    inner,
    lattice_2d,
    line,
    norm,
    position_distribution,
    prune,
    scale,
    state_from_json,
    state_new,
    state_to_json,
    sub,
)

Z2 = lattice_2d()
Z1 = line()

R4 = (1, 0, 0, 0)
L4 = (0, 1, 0, 0)


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
        with pytest.raises(ValueError):
            state_new(Z2, [((0, 0), (float("nan"), 0, 0, 0))])

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


class TestPruneAndArithmetic:
    def test_prune_drops_exact_zeros(self):
        psi = state_new(Z1, [((0,), (1, 0)), ((1,), (1, 0)), ((1,), (-1, 0))])
        assert (1,) in psi.support  # cancellation is kept until pruned
        assert (1,) not in prune(psi).support

    def test_prune_threshold(self):
        psi = state_new(Z1, [((0,), (1, 0)), ((1,), (1e-9, 0))])
        assert len(prune(psi, 1e-6).support) == 1

    def test_add_sub_roundtrip(self, rng):
        from conftest import random_sparse_state

        a = random_sparse_state(Z2, rng)
        b = random_sparse_state(Z2, rng)
        back = sub(add(a, b), b)
        from qwproj import max_abs_difference

        assert max_abs_difference(back, a) < 1e-15


class TestSerialization:
    def test_json_round_trip(self, rng):
        from conftest import random_sparse_state

        psi = random_sparse_state(Z2, rng, points=5)
        text = state_to_json(psi)
        back = state_from_json(Z2, text)
        from qwproj import max_abs_difference

        assert max_abs_difference(back, psi) == 0.0

    def test_json_space_name_checked(self):
        psi = state_new(Z1, [((0,), (1, 0))])
        data = json.loads(state_to_json(psi))
        with pytest.raises(SpaceMismatch):
            from_json_dict(Z2, data)

    def test_dump_shape(self):
        psi = state_new(Z1, [((2,), (0.5, -0.5j))])
        data = json.loads(state_to_json(psi))
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

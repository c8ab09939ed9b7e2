"""Phase-grid inversion: sigma bookkeeping, round trips, and failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwproj import (
    CoinAssignment,
    GridTooCoarse,
    InconsistentGrid,
    InvalidParameter,
    InvalidPosition,
    MissingSigma,
    NullProjection,
    WalkState,
    WalkSpec,
    add,
    evolve,
    grover_coin,
    induced_walk,
    lattice_2d,
    lattice_quotient,
    max_abs_difference,
    phase_grid,
    phase_projection_family,
    plan_reconstruction,
    project_state,
    reachable_window,
    reconstruct,
    reconstruct_support,
    sigma_support_bounds,
    state_new,
)
from qwproj.reconstruction import _fiber_stacks
from conftest import random_sparse_state

Z2 = lattice_2d()
GROVER2D = WalkSpec(Z2, CoinAssignment.homogeneous(grover_coin()))
GENERIC4 = np.array([1, 1j, -1, -1j]) / 2
TOP = 2**63 - 1


def origin_state():
    return state_new(Z2, [((0, 0), GENERIC4)])


def projection_family_direct(pmap, state, samples, delta=0.0):
    """Oracle family: project one evolved parent state at every grid phase."""
    return [(phi, project_state(pmap, phi, state)) for phi in phase_grid(samples, delta)]


class TestSigmaBounds:
    def test_single_point(self):
        pm = lattice_quotient(2, 1)
        assert sigma_support_bounds(origin_state(), pm) == (0, 0)

    def test_column_support(self):
        pm = lattice_quotient(1, 0)  # sigma(x, y) = y
        psi = state_new(
            Z2, [((0, 0), GENERIC4), ((0, 1), GENERIC4), ((0, 2), GENERIC4)]
        )
        assert sigma_support_bounds(psi, pm) == (0, 2)

    def test_growth_bounded_by_steps(self):
        pm = lattice_quotient(2, 1)
        step_weights = [abs(w) for w in pm.sigma_c.values()]
        for n in (3, 7):
            evolved = evolve(GROVER2D, origin_state(), n)
            lo, hi = sigma_support_bounds(evolved, pm)
            assert -n * max(step_weights) <= lo <= hi <= n * max(step_weights)

    def test_requires_sigma(self):
        from qwproj import ProjectionMap

        bare = ProjectionMap(
            source=Z2, target=lattice_quotient(1, 0).target, rho_array=lambda c: c[:, :1]
        )
        with pytest.raises(MissingSigma):
            sigma_support_bounds(origin_state(), bare)


class TestPlan:
    def test_auto_size_is_odd_and_sufficient(self):
        pm = lattice_quotient(1, 0)
        evolved = evolve(GROVER2D, origin_state(), 5)
        samples = plan_reconstruction(evolved, pm)
        sigma_min, sigma_max = sigma_support_bounds(evolved, pm)
        assert samples >= sigma_max - sigma_min + 1 and samples % 2 == 1
        grid = phase_grid(samples)
        assert grid[0] == 0.0 and len(grid) == samples

    def test_explicit_undersized_grid_rejected(self):
        pm = lattice_quotient(1, 0)
        evolved = evolve(GROVER2D, origin_state(), 5)
        with pytest.raises(GridTooCoarse):
            plan_reconstruction(evolved, pm, samples=8)


class TestRoundTrip:
    def test_single_point_source(self):
        pm = lattice_quotient(2, 1)
        psi = origin_state()
        family = projection_family_direct(pm, psi, 5)
        recovered = reconstruct(family, pm, (0, 0))
        assert max_abs_difference(recovered, psi) < 1e-14

    def test_global_window_round_trip(self):
        pm = lattice_quotient(2, 1)
        evolved = evolve(GROVER2D, origin_state(), 10)
        bounds = sigma_support_bounds(evolved, pm)
        family = projection_family_direct(pm, evolved, 21)
        recovered = reconstruct(family, pm, bounds)
        assert max_abs_difference(recovered, evolved) < 1e-10

    def test_candidate_region_round_trip(self):
        pm = lattice_quotient(3, 5)
        evolved = evolve(GROVER2D, origin_state(), 8)
        family = projection_family_direct(pm, evolved, 17)
        candidates = reachable_window(Z2, [(0, 0)], 8)
        recovered = reconstruct_support(family, pm, candidates)
        assert max_abs_difference(recovered, evolved) < 1e-10

    def test_family_from_induced_evolutions_matches_direct(self):
        # the intertwining identity makes both routes produce the same family
        pm = lattice_quotient(2, 1)
        psi = origin_state()
        n, samples = 6, 13
        evolved = evolve(GROVER2D, psi, n)
        induced_family = phase_projection_family(GROVER2D, pm, psi, n, samples)
        direct_family = projection_family_direct(pm, evolved, samples)
        for (phi_a, state_a), (phi_b, state_b) in zip(induced_family, direct_family):
            assert phi_a == phi_b
            assert max_abs_difference(state_a, state_b) < 1e-12

    def test_family_from_absorbed_convention_matches(self):
        # folding the step phases into the coin leaves the one-step product,
        # and hence every projected trajectory, unchanged
        pm = lattice_quotient(2, 1)
        psi = origin_state()
        n, samples = 5, 11
        for phi, reference in phase_projection_family(GROVER2D, pm, psi, n, samples):
            spec = induced_walk(GROVER2D, pm, phi)
            phases = spec.step_phases()
            coin = spec.coin.matrix if phases is None else np.diag(phases) @ spec.coin.matrix
            folded = WalkSpec(spec.space, CoinAssignment.homogeneous(coin))
            alt = evolve(folded, project_state(pm, phi, psi), n)
            assert max_abs_difference(alt, reference) < 1e-12

    @pytest.mark.parametrize("aliased", [False, True])
    def test_window_front_end_is_the_candidate_inversion(self, aliased):
        # reconstruct hands the window's (r, s) pairs to reconstruct_support,
        # and reads the same bins as a per-fiber, per-sigma loop
        pm = lattice_quotient(2, 1)
        n = 6
        evolved = evolve(GROVER2D, origin_state(), n)
        if aliased:  # one window of M = 2n - 1 sigma values, short of the span
            samples, bounds = 2 * n - 1, (-n, n - 2)
        else:
            bounds = sigma_support_bounds(evolved, pm)
            samples = bounds[1] - bounds[0] + 1
        family = projection_family_direct(pm, evolved, samples)
        recovered = reconstruct(family, pm, bounds)
        window = range(bounds[0], bounds[1] + 1)
        fibers = sorted({r for _, st in family for (r,) in st.support})
        candidates = [pm.invert_rs(r, s) for r in fibers for s in window]
        direct = reconstruct_support(family, pm, candidates)
        assert recovered.coords.tobytes() == direct.coords.tobytes()
        assert recovered.coins.tobytes() == direct.coins.tobytes()
        targets, bins = _fiber_stacks([st for _, st in family], 4)
        loop = {}
        for f, r in enumerate(targets[:, 0].tolist()):
            for s in window:
                if np.any(bins[s % samples, f]):
                    loop[pm.invert_rs(r, s)] = bins[s % samples, f]
        expected = WalkState(Z2, loop)
        assert recovered.coords.tobytes() == expected.coords.tobytes()
        assert recovered.coins.tobytes() == expected.coins.tobytes()
        assert (max_abs_difference(recovered, evolved) < 1e-10) != aliased

    def test_linearity(self, rng):
        pm = lattice_quotient(1, 0)
        a = random_sparse_state(Z2, rng, points=3, radius=3)
        b = random_sparse_state(Z2, rng, points=3, radius=3)
        samples, bounds = 9, (-3, 3)
        fam_a = projection_family_direct(pm, a, samples)
        fam_b = projection_family_direct(pm, b, samples)
        fam_sum = [
            (phi, add(sa, sb)) for (phi, sa), (_, sb) in zip(fam_a, fam_b)
        ]
        lhs = reconstruct(fam_sum, pm, bounds)
        rhs = add(reconstruct(fam_a, pm, bounds), reconstruct(fam_b, pm, bounds))
        assert max_abs_difference(lhs, rhs) < 1e-10


class TestFailureModes:
    def test_grid_too_coarse_for_window(self):
        pm = lattice_quotient(1, 0)
        evolved = evolve(GROVER2D, origin_state(), 5)
        bounds = sigma_support_bounds(evolved, pm)  # span 11
        family = projection_family_direct(pm, evolved, 10)
        with pytest.raises(GridTooCoarse):
            reconstruct(family, pm, bounds)

    def test_aliasing_negative_control(self):
        # one sample short: recovery must differ somewhere
        pm = lattice_quotient(1, 0)
        n = 5
        evolved = evolve(GROVER2D, origin_state(), n)
        samples = 2 * n  # span is 2n+1
        family = projection_family_direct(pm, evolved, samples)
        recovered = reconstruct(family, pm, (-n, n - 1))
        assert max_abs_difference(recovered, evolved) > 1e-6

    def test_collision_names_first_pair_in_order(self):
        pm = lattice_quotient(1, 0)
        family = projection_family_direct(pm, origin_state(), 5)
        candidates = [(1, 6), (0, 10), (0, 5), (1, 1), (0, 0)]
        with pytest.raises(GridTooCoarse) as err:
            reconstruct_support(family, pm, candidates)
        assert str(err.value) == (
            "candidates (0, 0) and (0, 5) share fiber (0,) and sigma bin 0 of 5"
        )

    def test_single_cancelling_phase_raises_null_projection(self):
        # the fiber x = 0 holds +g at sigma 0 and -g at sigma 1: zero at phi = 0
        pm = lattice_quotient(1, 0)
        psi = state_new(Z2, [((0, 0), GENERIC4), ((0, 1), -GENERIC4)])
        with pytest.raises(NullProjection):
            phase_projection_family(GROVER2D, pm, psi, 3, 5)
        family = phase_projection_family(GROVER2D, pm, psi, 3, 5, delta=0.1)
        assert len(family) == 5

    def test_positional_coin_needs_a_window(self):
        coin = CoinAssignment.positional(lambda pos: grover_coin(), 4)
        with pytest.raises(InvalidParameter):
            phase_projection_family(WalkSpec(Z2, coin), lattice_quotient(2, 1), origin_state(), 2, 5)

    def test_candidate_bin_collision_detected(self):
        pm = lattice_quotient(1, 0)
        family = projection_family_direct(pm, evolve(GROVER2D, origin_state(), 3), 5)
        with pytest.raises(GridTooCoarse):
            # (0, 0) and (0, 5) share the fiber x=0 and the sigma bin 0 mod 5
            reconstruct_support(family, pm, [(0, 0), (0, 5)])

    def test_inconsistent_grid_rejected(self):
        pm = lattice_quotient(1, 0)
        psi = origin_state()
        family = projection_family_direct(pm, psi, 5)
        skewed = [(phi + (0.01 if i == 2 else 0.0), st) for i, (phi, st) in enumerate(family)]
        with pytest.raises(InconsistentGrid):
            reconstruct(skewed, pm, (0, 0))


class TestGridPhaseEquivariance:
    def test_shifted_grid_scales_coefficients(self):
        pm = lattice_quotient(1, 0)
        evolved = evolve(GROVER2D, origin_state(), 4)
        bounds = sigma_support_bounds(evolved, pm)
        delta = 0.23
        family = projection_family_direct(pm, evolved, 9, delta=delta)
        recovered = reconstruct(family, pm, bounds)
        from qwproj import WalkState

        expected = WalkState(
            Z2,
            {
                pos: np.exp(1j * pm.sigma(pos) * delta) * vec
                for pos, vec in evolved.support.items()
            },
        )
        assert max_abs_difference(recovered, expected) < 1e-12


class TestBatchedFamily:
    def test_states_share_one_coordinate_block(self):
        pm = lattice_quotient(2, 1)
        family = phase_projection_family(GROVER2D, pm, origin_state(), 4, 9)
        coords = family[0][1].coords
        assert all(state.coords is coords for _, state in family)
        with pytest.raises(ValueError):
            family[3][1].coins[0, 0] = 1.0

    def test_zero_steps_returns_the_projections(self):
        pm = lattice_quotient(3, 2)
        psi = random_sparse_state(Z2, np.random.default_rng(3), points=4, radius=3)
        family = phase_projection_family(GROVER2D, pm, psi, 0, 7, delta=0.2)
        for phi, state in family:
            direct = project_state(pm, phi, psi)
            assert state.coins.tobytes() == direct.coins.tobytes()

    def test_block_fft_equals_per_fiber_fft(self, rng):
        pm = lattice_quotient(2, 1)
        evolved = evolve(GROVER2D, random_sparse_state(Z2, rng, points=3, radius=2), 5)
        states = [state for _, state in projection_family_direct(pm, evolved, 11)]
        # one member on fewer fibers: the missing ones count as zero vectors
        states[4] = WalkState(pm.target, dict(list(states[4].support.items())[::2]))
        fibers, bins = _fiber_stacks(states, 4)
        positions = sorted(set().union(*(state.support for state in states)))
        assert [tuple(r) for r in fibers.tolist()] == positions
        zero = np.zeros(4, dtype=np.complex128)
        for f, pos in enumerate(positions):
            stack = np.array([state.support.get(pos, zero) for state in states])
            expected = np.fft.fft(stack, axis=0) / len(states)
            assert bins[:, f].tobytes() == expected.tobytes()


def coprime_pairs():
    pairs = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    return pairs.filter(lambda kl: math.gcd(*kl) == 1)


class TestFamilyProperties:
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        kl=coprime_pairs(),
        offset=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 2**16),
        points=st.integers(1, 3),
        n=st.integers(0, 4),
    )
    def test_batched_family_and_shifted_inversion(self, kl, offset, seed, points, n):
        pm = lattice_quotient(*kl)
        psi = random_sparse_state(Z2, np.random.default_rng(seed), points=points, radius=2)
        candidates = reachable_window(Z2, psi.support, n)
        sigmas = [pm.sigma(pos) for pos in candidates]
        samples = max(sigmas) - min(sigmas) + 1
        delta = offset * 2 * math.pi / samples
        family = phase_projection_family(GROVER2D, pm, psi, n, samples, delta)

        # the batched block is, bit for bit, the per-phase loop
        for (phi, state), grid_phi in zip(family, phase_grid(samples, delta)):
            assert phi == grid_phi
            alone = evolve(induced_walk(GROVER2D, pm, phi), project_state(pm, phi, psi), n)
            assert state.coords.tobytes() == alone.coords.tobytes()
            assert state.coins.tobytes() == alone.coins.tobytes()

        # the inversion returns exp(i*s*delta) * alpha at sigma = s
        evolved = evolve(GROVER2D, psi, n)
        expected = WalkState(
            Z2,
            {
                pos: np.exp(1j * pm.sigma(pos) * delta) * vec
                for pos, vec in evolved.support.items()
            },
        )
        recovered = reconstruct_support(family, pm, candidates)
        assert max_abs_difference(recovered, expected) < 1e-12


class TestFamilyProjection:
    """The family groups psi0's fibers and takes its sigma once for all phases."""

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_states_equal_separate_evolutions(self, rng, n):
        pm = lattice_quotient(2, 1)
        psi = random_sparse_state(Z2, rng, points=4, radius=3)
        for phi, state in phase_projection_family(GROVER2D, pm, psi, n, 7, delta=0.3):
            alone = evolve(induced_walk(GROVER2D, pm, phi), project_state(pm, phi, psi), n)
            assert np.array_equal(state.coords, alone.coords)
            assert np.array_equal(state.coins, alone.coins)

    def test_null_projection_names_the_first_cancelling_phase(self):
        # The fiber x = 0 holds g at sigma 0 and c*g at sigma 1, with c
        # chosen so that the two cancel at the third grid phase only.
        pm = lattice_quotient(1, 0)
        grid = phase_grid(5)
        c = -np.exp(-1j * grid[2])
        psi = state_new(Z2, [((0, 0), GENERIC4), ((0, 1), c * GENERIC4)])
        for phi in grid[:2]:
            project_state(pm, phi, psi)
        with pytest.raises(NullProjection) as expected:
            project_state(pm, grid[2], psi)
        with pytest.raises(NullProjection) as raised:
            phase_projection_family(GROVER2D, pm, psi, 3, 5)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("start", [TOP - 3, -(TOP - 3)])
    def test_int64_bound_checked_at_the_same_step(self, start):
        # Three steps fit below the step's bound and the fourth crosses it;
        # the family raises there, naming the position apply_step names.
        pm = lattice_quotient(1, 0)
        psi = state_new(Z2, [((start, 0), GENERIC4)])
        phi = phase_grid(3)[1]
        alone = induced_walk(GROVER2D, pm, phi)
        family = phase_projection_family(GROVER2D, pm, psi, 3, 3)
        expected = evolve(alone, project_state(pm, phi, psi), 3)
        assert np.array_equal(family[1][1].coins, expected.coins)
        with pytest.raises(InvalidPosition) as expected:
            evolve(alone, project_state(pm, phi, psi), 4)
        with pytest.raises(InvalidPosition) as raised:
            phase_projection_family(GROVER2D, pm, psi, 4, 3)
        assert str(raised.value) == str(expected.value)

"""Phase-grid inversion: sigma bookkeeping, round trips, and failure modes."""

import math
import re

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
    ProjectionMap,
    SpaceMismatch,
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
    state_new,
    verify_commutation,
)
import qwproj.reconstruction as reconstruction_module
from qwproj.reconstruction import _fiber_stacks
from conftest import on_position, random_sparse_state

Z2 = lattice_2d()
GROVER2D = WalkSpec(Z2, CoinAssignment.homogeneous(grover_coin()))
GENERIC4 = np.array([1, 1j, -1, -1j]) / 2
TOP = 2**63 - 1


def origin_state():
    return state_new(Z2, [((0, 0), GENERIC4)])


def sigma_bounds(state, pmap):
    """Smallest and largest sigma over the state's support: a global window."""
    sigmas = pmap.sigma_array(state.coords).tolist()
    return min(sigmas), max(sigmas)


def projection_family_direct(pmap, state, samples, delta=0.0):
    """Oracle family: project one evolved parent state at every grid phase."""
    return [(phi, project_state(pmap, phi, state)) for phi in phase_grid(samples, delta)]


class TestSigmaBounds:
    def test_single_point(self):
        pm = lattice_quotient(2, 1)
        assert sigma_bounds(origin_state(), pm) == (0, 0)

    def test_column_support(self):
        pm = lattice_quotient(1, 0)  # sigma(x, y) = y
        psi = state_new(
            Z2, [((0, 0), GENERIC4), ((0, 1), GENERIC4), ((0, 2), GENERIC4)]
        )
        assert sigma_bounds(psi, pm) == (0, 2)

    def test_growth_bounded_by_steps(self):
        pm = lattice_quotient(2, 1)
        step_weights = [abs(w) for w in pm.sigma_c.values()]
        for n in (3, 7):
            evolved = evolve(GROVER2D, origin_state(), n)
            lo, hi = sigma_bounds(evolved, pm)
            assert -n * max(step_weights) <= lo <= hi <= n * max(step_weights)

    @staticmethod
    def bare_map():
        return ProjectionMap(
            source=Z2, target=lattice_quotient(1, 0).target, rho_array=lambda c: c[:, :1]
        )

    def test_requires_sigma(self):
        bare = self.bare_map()
        with pytest.raises(MissingSigma):
            plan_reconstruction(bare, [(0, 0)])
        family = projection_family_direct(lattice_quotient(1, 0), origin_state(), 3)
        with pytest.raises(MissingSigma):
            reconstruct_support(family, bare, [(0, 0)])
        # a phi = 0 grid alone needs no sigma
        ((phi, state),) = phase_projection_family(GROVER2D, bare, origin_state(), 2, 1)
        direct = evolve(induced_walk(GROVER2D, bare), project_state(bare, 0.0, origin_state()), 2)
        assert phi == 0.0 and state.coins.tobytes() == direct.coins.tobytes()
        with pytest.raises(MissingSigma):
            phase_projection_family(GROVER2D, bare, origin_state(), 2, 3)

    @pytest.mark.parametrize("coin", [GENERIC4, -1j * GENERIC4.real, np.array([-0.0, 0, 1j, -1j])])
    def test_a_map_without_sigma_takes_the_one_phase_path(self, coin):
        # The grid (0.0,) multiplies in exp(0) with or without sigma, so the
        # family on the same rho is bitwise the same.
        psi = state_new(Z2, [((0, 0), coin), ((1, 1), coin[::-1])])
        for n in (0, 1, 5):
            ((_, bare),) = phase_projection_family(GROVER2D, self.bare_map(), psi, n, 1)
            ((_, full),) = phase_projection_family(GROVER2D, lattice_quotient(1, 0), psi, n, 1)
            assert bare.coords.tolist() == full.coords.tolist()
            assert bare.coins.tobytes() == full.coins.tobytes()


def widest_fiber(pmap, positions):
    """Loop oracle: the largest sigma span (max - min + 1) within one fiber."""
    fibers = {}
    for pos in positions:
        rho, sigma = on_position(pmap.rho_array, pos), on_position(pmap.sigma_array, pos)
        fibers.setdefault(rho, []).append(sigma)
    return max(max(s) - min(s) + 1 for s in fibers.values())


class TestPlan:
    @pytest.mark.parametrize("kl", [(1, 0), (2, 1), (3, 5)])
    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_default_grid_is_the_widest_fiber_span(self, kl, n):
        pm = lattice_quotient(*kl)
        psi = origin_state()
        window = reachable_window(Z2, psi.support, n)
        samples = plan_reconstruction(pm, window)
        assert samples == widest_fiber(pm, map(tuple, window.tolist()))
        # the per-fiber grid recovers the reference on every window site
        reference = evolve(GROVER2D, psi, n)
        family = phase_projection_family(GROVER2D, pm, psi, n, samples)
        recovered = reconstruct_support(family, pm, window)
        assert max_abs_difference(recovered, reference) < 1e-10
        occupied = {pos for pos, vec in reference.support.items() if np.any(vec)}
        assert occupied <= set(recovered.support) <= set(map(tuple, window.tolist()))
        # one phase fewer aliases two sites of the widest fiber
        with pytest.raises(GridTooCoarse, match=f"sigma bin .* of {samples - 1}$"):
            plan_reconstruction(pm, window, samples - 1)

    @pytest.mark.parametrize("samples", [None, 25])
    def test_one_rho_and_one_sigma_read(self, samples):
        base = lattice_quotient(2, 1)
        calls = {"rho": 0, "sigma": 0}

        def counted(name, action):
            def read(coords):
                calls[name] += 1
                return action(coords)
            return read

        pm = ProjectionMap(**{**vars(base), "rho_array": counted("rho", base.rho_array),
                              "sigma_array": counted("sigma", base.sigma_array)})
        window = reachable_window(Z2, [(0, 0)], 12)
        assert plan_reconstruction(pm, window, samples) == plan_reconstruction(base, window, samples)
        assert calls == {"rho": 1, "sigma": 1}

    def test_global_span_would_be_wider(self):
        # the benchmark's call: 97 phases by the global span, 33 per fiber
        pm = lattice_quotient(2, 1)
        window = reachable_window(Z2, [(0, 0)], 48)
        sigmas = pm.sigma_array(window)
        assert len(window) == 4705 and sigmas.max() - sigmas.min() + 1 == 97
        assert plan_reconstruction(pm, window) == 33

    def test_no_candidates_plan_one_phase(self):
        pm = lattice_quotient(2, 1)
        assert plan_reconstruction(pm, []) == 1
        family = projection_family_direct(pm, origin_state(), 1)
        assert reconstruct_support(family, pm, []).support == {}

    def test_explicit_undersized_grid_rejected(self):
        pm = lattice_quotient(1, 0)
        window = reachable_window(Z2, [(0, 0)], 5)  # the column x = 0 spans 11
        with pytest.raises(GridTooCoarse):
            plan_reconstruction(pm, window, samples=8)
        assert plan_reconstruction(pm, window, samples=11) == 11
        with pytest.raises(InvalidParameter):
            plan_reconstruction(pm, window, samples=0)

    @pytest.mark.parametrize(
        "candidates", [[(0, 0), (0.7, 0.2)], np.array([[0.7, 0.2]])], ids=["tuples", "block"]
    )
    def test_non_integer_candidates_refused(self, candidates):
        # not truncated to a plan for (0, 0)
        pm = lattice_quotient(1, 0)
        with pytest.raises(InvalidPosition, match=r"\(0\.7, 0\.2\)"):
            plan_reconstruction(pm, candidates)
        family = phase_projection_family(GROVER2D, pm, origin_state(), 1, 3)
        with pytest.raises(InvalidPosition, match=r"\(0\.7, 0\.2\)"):
            reconstruct_support(family, pm, candidates)

    @pytest.mark.parametrize(
        "samples", [0, -2, True, 2.5, 13.0, np.float64(11.0), "11", 2**63, 10**30]
    )
    def test_sample_counts_follow_one_rule(self, samples):
        pm = lattice_quotient(1, 0)
        window = reachable_window(Z2, [(0, 0)], 5)
        with pytest.raises(InvalidParameter, match="phase sample count"):
            plan_reconstruction(pm, window, samples)
        with pytest.raises(InvalidParameter, match="phase sample count"):
            phase_grid(samples)
        with pytest.raises(InvalidParameter, match="phase sample count"):
            phase_projection_family(GROVER2D, pm, origin_state(), 2, samples)

    def test_sample_counts_up_to_int64_are_taken(self):
        # sigma is binned modulo the count in int64
        window = reachable_window(Z2, [(0, 0)], 2)
        assert plan_reconstruction(lattice_quotient(2, 1), window, TOP) == TOP
        pm = lattice_quotient(1, 0)
        assert plan_reconstruction(pm, [(0, -TOP), (0, -1)]) == TOP
        # a default span past int64, not wrapped around to a count of -1
        for fiber, wide in (([(0, -TOP), (0, 0)], TOP + 1), ([(0, -TOP), (0, TOP)], 2 * TOP + 1)):
            with pytest.raises(InvalidParameter, match=f"must be <= {TOP}, got {wide}$"):
                plan_reconstruction(pm, fiber)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_every_phase_input_refuses_a_non_finite_phase(self, phi):
        # not NaN states, NaN step phases or a NaN-residual report
        pm, psi = lattice_quotient(1, 0), origin_state()
        named = re.escape(f"must be finite, got {phi!r}")
        with pytest.raises(InvalidParameter, match=f"^phi {named}"):
            project_state(pm, phi, psi)
        with pytest.raises(InvalidParameter, match=f"^phi {named}"):
            induced_walk(GROVER2D, pm, phi)
        with pytest.raises(InvalidParameter, match=f"^phi {named}"):
            verify_commutation(GROVER2D, pm, phi, psi, 2)
        with pytest.raises(InvalidParameter, match=f"^grid offset delta {named}"):
            phase_grid(3, delta=phi)
        with pytest.raises(InvalidParameter, match=f"^grid offset delta {named}"):
            phase_projection_family(GROVER2D, pm, psi, 2, 3, delta=phi)
        # a family built by hand at such a phase is off every uniform grid
        family = phase_projection_family(GROVER2D, pm, psi, 2, 3)
        family[1] = (phi, family[1][1])
        with pytest.raises(InconsistentGrid):
            reconstruct_support(family, pm, reachable_window(Z2, [(0, 0)], 2))

    @pytest.mark.parametrize("x", ["x", None, 1j, True, np.bool_(False)])
    def test_every_real_input_refuses_a_non_real(self, x):
        # a typed error, not TypeError from math.isfinite; a bool is no
        # phase, as it is no count
        pm, psi = lattice_quotient(1, 0), origin_state()
        named = re.escape(f"must be a real number, got {x!r}")
        with pytest.raises(InvalidParameter, match=f"^phi {named}"):
            project_state(pm, x, psi)
        with pytest.raises(InvalidParameter, match=f"^phi {named}"):
            induced_walk(GROVER2D, pm, x)
        with pytest.raises(InvalidParameter, match=f"^phi {named}"):
            verify_commutation(GROVER2D, pm, x, psi, 2)
        with pytest.raises(InvalidParameter, match=f"^grid offset delta {named}"):
            phase_grid(3, x)
        with pytest.raises(InvalidParameter, match=f"^tol {named}"):
            verify_commutation(GROVER2D, pm, 0.0, psi, 2, tol=x)

    @pytest.mark.parametrize("n", [-1, True, 2.5, 2.0])
    def test_family_refuses_a_bad_step_count(self, n):
        with pytest.raises(InvalidParameter, match="step count"):
            phase_projection_family(GROVER2D, lattice_quotient(1, 0), origin_state(), n, 5)

    def test_numpy_sample_counts_are_plain_ints(self):
        pm = lattice_quotient(1, 0)
        window = reachable_window(Z2, [(0, 0)], 5)
        samples = plan_reconstruction(pm, window, np.int64(11))
        assert samples == 11 and type(samples) is int
        assert phase_grid(np.int32(3)) == phase_grid(3)

    def test_block_and_tuples_give_the_same_results(self):
        pm = lattice_quotient(2, 1)
        psi = origin_state()
        block = reachable_window(Z2, psi.support, 6)
        positions = list(map(tuple, block.tolist()))[::-1]
        samples = plan_reconstruction(pm, block)
        assert plan_reconstruction(pm, positions) == samples
        family = phase_projection_family(GROVER2D, pm, psi, 6, samples)
        by_block = reconstruct_support(family, pm, block)
        by_positions = reconstruct_support(family, pm, positions)
        assert by_block.coords.tobytes() == by_positions.coords.tobytes()
        assert by_block.coins.tobytes() == by_positions.coins.tobytes()
        # the candidate block is read, not kept: the state owns its coordinates
        assert not np.shares_memory(by_block.coords, block)


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
        bounds = sigma_bounds(evolved, pm)
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

    @pytest.mark.parametrize("y", [2**70, -(2**70), TOP - 2, -(TOP - 2)])
    def test_round_trip_far_along_a_fiber(self, y):
        # For (k, l) = (2, 1) sigma is -x, so sites far out along y keep a
        # small sigma while their coordinates and fibers leave int64.
        pm = lattice_quotient(2, 1)
        psi = state_new(Z2, [((0, y), GENERIC4), ((1, y - 2), GENERIC4[::-1])])
        evolved = evolve(GROVER2D, psi, 6)
        window = reachable_window(Z2, psi.coords, 6)
        assert window.dtype == evolved.coords.dtype == object
        family = phase_projection_family(GROVER2D, pm, psi, 6, plan_reconstruction(pm, window))
        recovered = reconstruct_support(family, pm, window)
        assert max_abs_difference(recovered, evolved) < 1e-12
        bounds = sigma_bounds(evolved, pm)
        family = phase_projection_family(GROVER2D, pm, psi, 6, bounds[1] - bounds[0] + 1)
        assert max_abs_difference(reconstruct(family, pm, bounds), evolved) < 1e-12

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
            bounds = sigma_bounds(evolved, pm)
            samples = bounds[1] - bounds[0] + 1
        family = projection_family_direct(pm, evolved, samples)
        recovered = reconstruct(family, pm, bounds)
        window = range(bounds[0], bounds[1] + 1)
        fibers = sorted({r for _, st in family for (r,) in st.support})
        candidates = [pm.invert_rs(r, s) for r in fibers for s in window]
        direct = reconstruct_support(family, pm, candidates)
        assert recovered.coords.tobytes() == direct.coords.tobytes()
        assert recovered.coins.tobytes() == direct.coins.tobytes()
        bins, columns = _fiber_stacks([st for _, st in family], np.array(fibers)[:, None], 4)
        loop = {}
        for r, f in zip(fibers, columns.tolist()):
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
        bounds = sigma_bounds(evolved, pm)  # span 11
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

    @pytest.mark.parametrize("bounds", [(-2.7, 2.9), (-2, 2.0), (True, 2), (-2, "2")])
    def test_non_integral_bounds_rejected(self, bounds):
        pm = lattice_quotient(1, 0)
        family = projection_family_direct(pm, origin_state(), 5)
        with pytest.raises(InvalidParameter, match="sigma bound must be an integer"):
            reconstruct(family, pm, bounds)

    @pytest.mark.parametrize("bounds", [(3,), None, (-3, 3, 9), 5, ()])
    def test_bounds_must_be_a_pair(self, bounds):
        pm = lattice_quotient(1, 0)
        family = projection_family_direct(pm, origin_state(), 7)
        with pytest.raises(InvalidParameter, match="sigma bounds must be two integers"):
            reconstruct(family, pm, bounds)

    def test_family_on_another_space_refused(self):
        # lattice_quotient(1, 0) and (2, 1) both project onto a line, but
        # with other jumps: the family is not one of the (2, 1) map's.
        family = phase_projection_family(GROVER2D, lattice_quotient(1, 0), origin_state(), 3, 9)
        pm = lattice_quotient(2, 1)
        with pytest.raises(SpaceMismatch, match="projection family member"):
            reconstruct_support(family, pm, reachable_window(Z2, [(0, 0)], 3))
        with pytest.raises(SpaceMismatch, match="projection family member"):
            reconstruct(family, pm, (-4, 4))

    def test_empty_family_refused_as_empty(self):
        with pytest.raises(InvalidParameter, match="empty projection family"):
            reconstruct([], lattice_quotient(1, 0), (-2, 2))

    def test_family_off_the_target_refused_before_any_candidate(self):
        family = phase_projection_family(GROVER2D, lattice_quotient(1, 0), origin_state(), 3, 9)
        base = lattice_quotient(2, 1)
        calls = []

        def counted(r, s):
            calls.append((r, s))
            return base.invert_rs(r, s)

        pm = ProjectionMap(**{**vars(base), "invert_rs": counted})
        with pytest.raises(SpaceMismatch, match="projection family member"):
            reconstruct(family, pm, (-4, 4))
        assert calls == []

    def test_numpy_bounds_accepted(self):
        pm = lattice_quotient(1, 0)
        family = projection_family_direct(pm, origin_state(), 5)
        by_numpy = reconstruct(family, pm, (np.int64(-2), np.int32(2)))
        by_int = reconstruct(family, pm, (-2, 2))
        assert by_numpy.coins.tobytes() == by_int.coins.tobytes()

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
        bounds = sigma_bounds(evolved, pm)
        delta = 0.23
        family = projection_family_direct(pm, evolved, 9, delta=delta)
        recovered = reconstruct(family, pm, bounds)
        from qwproj import WalkState

        expected = WalkState(
            Z2,
            {
                pos: np.exp(1j * on_position(pm.sigma_array, pos) * delta) * vec
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
        # and a target that no member holds is a zero column
        positions = sorted(set().union(*(state.support for state in states)))
        positions.append((positions[-1][0] + 1,))
        targets = np.array(positions[::-1])
        bins, columns = _fiber_stacks(states, targets, 4)
        assert bins.shape == (len(states), len(positions), 4)
        zero = np.zeros(4, dtype=np.complex128)
        for f, pos in zip(columns.tolist(), map(tuple, targets.tolist())):
            stack = np.array([state.support.get(pos, zero) for state in states])
            expected = np.fft.fft(stack, axis=0) / len(states)
            assert bins[:, f].tobytes() == expected.tobytes()
        assert sorted(columns.tolist()) == list(range(len(positions)))


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
        sigmas = pm.sigma_array(candidates)
        samples = int(sigmas.max() - sigmas.min()) + 1
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
                pos: np.exp(1j * on_position(pm.sigma_array, pos) * delta) * vec
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

    def test_one_induced_walk_and_one_sigma_read(self, monkeypatch):
        # The M walks differ only in their step phases, which come from one
        # read of the step weights, not from M induced walks.
        calls = {"induced_walk": 0, "sigma_c": 0}
        build = reconstruction_module.induced_walk

        def counted_walk(*args, **kwargs):
            calls["induced_walk"] += 1
            return build(*args, **kwargs)

        read = ProjectionMap.sigma_c.fget

        def counted_read(pmap):
            calls["sigma_c"] += 1
            return read(pmap)

        monkeypatch.setattr(reconstruction_module, "induced_walk", counted_walk)
        monkeypatch.setattr(ProjectionMap, "sigma_c", property(counted_read))
        pm = lattice_quotient(2, 1)
        family = phase_projection_family(GROVER2D, pm, origin_state(), 4, 33)
        assert len(family) == 33
        assert calls["induced_walk"] == 1 and calls["sigma_c"] <= 1

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
    def test_family_steps_past_int64(self, start):
        # Three steps fit in int64 and the fourth leaves it; the family goes
        # on in exact integers, entry for entry each separate evolution.
        pm = lattice_quotient(1, 0)
        psi = state_new(Z2, [((start, 0), GENERIC4)])
        family = phase_projection_family(GROVER2D, pm, psi, 6, 3)
        for phi, state in family:
            alone = evolve(induced_walk(GROVER2D, pm, phi), project_state(pm, phi, psi), 6)
            assert state.coords.dtype == alone.coords.dtype == object
            assert np.array_equal(state.coords, alone.coords)
            assert state.coins.tobytes() == alone.coins.tobytes()
        assert max(abs(x) for (x,) in family[0][1].support) == TOP + 3

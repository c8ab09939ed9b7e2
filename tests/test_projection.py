"""Projection operators, induced walks, and the intertwining identities."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwproj import (
    CoinAssignment,
    InhomogeneousCoin,
    InvalidParameter,
    MissingSigma,
    NullProjection,
    ProjectionMap,
    SpaceMismatch,
    StepPhase,
    WalkSpec,
    WalkState,
    add,
    apply_coin,
    apply_step,
    catalog,
    check_coin_homogeneity,
    cyclic_quotient,
    diff_norm,
    evolve,
    evolve_recurrence,
    grover_coin,
    hadamard_coin,
    induced_walk,
    lattice_2d,
    lattice_quotient,
    line,
    llattice_quotient,
    max_abs_difference,
    norm,
    project_state,
    reachable_window,
    scale,
    state_new,
    verify_commutation,
)
from qwproj import projection as projection_module
from qwproj import walk as walk_module
from conftest import haar_unitary, identity_map, on_position, random_sparse_state, traced_peak

Z2 = lattice_2d()
GROVER2D = WalkSpec(Z2, CoinAssignment.homogeneous(grover_coin()))
HADAMARD_LINE = WalkSpec(line(), CoinAssignment.homogeneous(hadamard_coin()))

GENERIC4 = np.array([1, 1j, -1, -1j]) / 2


def catalog_pairings():
    return [
        (GROVER2D, lattice_quotient(1, 0)),
        (GROVER2D, lattice_quotient(2, 1)),
        (GROVER2D, lattice_quotient(1, 1)),
        (HADAMARD_LINE, cyclic_quotient(4)),
        (
            WalkSpec(
                llattice_quotient().source, CoinAssignment.homogeneous(hadamard_coin())
            ),
            llattice_quotient(),
        ),
    ]


class TestProjectState:
    def test_identity_is_relabeling(self, rng):
        psi = random_sparse_state(Z2, rng)
        out = project_state(identity_map(Z2), 0.0, psi)
        assert max_abs_difference(out, psi) == 0.0

    def test_fiber_sum(self):
        psi = state_new(Z2, [((0, 0), (1, 0, 0, 0)), ((0, 1), (0, 1, 0, 0))])
        out = project_state(lattice_quotient(1, 0), 0.0, psi)
        np.testing.assert_array_equal(out.support[(0,)], [1, 1, 0, 0])

    def test_exact_cancellation_raises(self):
        psi = state_new(Z2, [((0, 0), (1, 0, 0, 0)), ((0, 1), (-1, 0, 0, 0))])
        with pytest.raises(NullProjection):
            project_state(lattice_quotient(1, 0), 0.0, psi)

    def test_null_projection_names_the_fibers_that_cancelled_most(self):
        # Fibers x = 0 and x = 3 cancel, x = 3 with twice the norm; the
        # one-site fiber x = 5 loses nothing, so it is not named.
        psi = state_new(Z2, [
            ((0, 0), GENERIC4), ((0, 1), -GENERIC4),
            ((3, 0), 2 * GENERIC4), ((3, 2), -2 * GENERIC4),
            ((5, 0), 1e-15 * GENERIC4),
        ])
        with pytest.raises(NullProjection) as raised:
            project_state(lattice_quotient(1, 0), 0.0, psi)
        assert str(raised.value) == (
            "projection through 'lattice(k=1,l=0)' cancelled to norm 1.000e-15 "
            "(input norm 3.162e+00); the fibers that cancelled most, sum of term "
            "norms -> norm of sum: (3,) 4.000e+00 -> 0.000e+00, (0,) 2.000e+00 -> 0.000e+00"
        )

    def test_null_test_is_scale_relative(self, rng):
        psi = scale(1e-13, random_sparse_state(Z2, rng))
        pm = lattice_quotient(2, 1)
        tiny = project_state(pm, 0.4, psi)
        full = project_state(pm, 0.4, scale(1e13, psi))
        assert max_abs_difference(scale(1e13, tiny), full) < 1e-12
        out = project_state(pm, 0.0, psi, normalize=True)
        from qwproj import norm

        assert norm(out) == pytest.approx(1.0, abs=1e-13)

    def test_zero_and_empty_inputs_raise(self):
        pm = lattice_quotient(1, 0)
        zero = state_new(Z2, [((0, 0), (0, 0, 0, 0)), ((3, 1), (0, 0, 0, 0))])
        with pytest.raises(NullProjection):
            project_state(pm, 0.0, zero)
        with pytest.raises(NullProjection):
            project_state(pm, 0.0, state_new(Z2, []))

    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_overflow_is_refused_not_cancelled(self, phi):
        # A state whose norm is beyond the float range, and two sites whose
        # fiber sum is: neither is a cancellation, nor a projection with an
        # infinite coin.  The error names the fiber whose sum overflowed.
        pm = lattice_quotient(1, 0)
        big = state_new(Z2, [((0, 0), (1e308,) * 4)])
        shared = state_new(Z2, [((0, 0), (1e308, 0, 0, 0)), ((0, 1), (1e308, 0, 0, 0))])
        # The state's norm and each fiber sum's are finite, the projection's is not.
        wide = state_new(Z2, [((x, y), (0.6e308, 0, 0, 0)) for x in range(3) for y in (0, 1)])
        for psi, where in ((big, "; the sum over fiber (0,) overflows"),
                           (shared, "; the sum over fiber (0,) overflows"), (wide, "")):
            with pytest.raises(InvalidParameter, match="is beyond the float range") as raised:
                project_state(pm, phi, psi)
            assert str(raised.value).endswith(")" + where)
            with pytest.raises(InvalidParameter):
                verify_commutation(GROVER2D, pm, phi, psi, 3)

    def test_phase_beyond_the_float_range_is_refused(self):
        pm = lattice_quotient(2, 1)
        far = state_new(Z2, [((10**400, 0), GENERIC4)])
        assert len(project_state(pm, 0.0, far).coins) == 1
        with pytest.raises(InvalidParameter, match="sigma is beyond the float range"):
            project_state(pm, 0.7, far)

    def test_site_sigma_beyond_the_float_range_is_named(self):
        # sigma(x, y) = -x for lattice_quotient(2, 1)
        pm = lattice_quotient(2, 1)
        far = state_new(Z2, [((10**400, 0), GENERIC4), ((1, 0), GENERIC4)])
        with pytest.raises(InvalidParameter, match=self.phase_refusal(0.7, -(10**400))):
            project_state(pm, 0.7, far)

    @staticmethod
    def phase_refusal(phi, sigma):
        return "^" + re.escape(
            f"phi*sigma is beyond the float range at phi = {phi!r}, sigma = {sigma}, "
            "so the phase exp(i*phi*sigma) cannot be taken"
        ) + "$"

    @pytest.mark.parametrize("phi", [1e308, -1e308])
    def test_phi_sigma_beyond_the_float_range_is_refused(self, phi):
        # phi*sigma overflows at sigma = +-2 only, so a walk from sigma = 0
        # runs one step and is refused at the second, without a warning
        # (warnings are errors in this suite).
        pm = cyclic_quotient(4)
        psi0 = state_new(pm.source, [((0,), (1, 0))])
        assert len(project_state(pm, phi, psi0).coins) == 1
        with pytest.raises(InvalidParameter, match=self.phase_refusal(phi, 2)):
            project_state(pm, phi, state_new(pm.source, [((1,), (1, 0)), ((2,), (1, 0))]))
        with pytest.raises(InvalidParameter, match=self.phase_refusal(phi, -2)):
            project_state(pm, phi, state_new(pm.source, [((-2,), (1, 0)), ((1,), (1, 0))]))
        assert verify_commutation(HADAMARD_LINE, pm, phi, psi0, 1).passed
        with pytest.raises(InvalidParameter, match=self.phase_refusal(phi, -2)):
            verify_commutation(HADAMARD_LINE, pm, phi, psi0, 2)

    def test_step_phase_beyond_the_float_range_is_refused(self):
        # the induced step weights of a jump-2 line folded onto a circle are
        # +-2; the refusal names the weight of largest modulus, the lower one
        # on a tie, as it does for the sigma of a site
        pm = cyclic_quotient(4, line([("R", 2), ("L", -2)]))
        walk = WalkSpec(pm.source, CoinAssignment.homogeneous(hadamard_coin()))
        induced = induced_walk(walk, pm, 1e308)
        with pytest.raises(InvalidParameter, match=self.phase_refusal(1e308, -2)):
            induced.step_phases()
        assert induced_walk(walk, pm, 0.5e308).step_phases().shape == (2,)
        # a weight that is itself beyond the float range
        huge = WalkSpec(line(), walk.coin, StepPhase(0.5, {"R": 10**400, "L": -(10**400)}))
        with pytest.raises(InvalidParameter, match=self.phase_refusal(0.5, -(10**400))):
            huge.step_phases()

    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_projection_past_int64_is_exact(self, phi):
        edge = 2**62
        pm = lattice_quotient(2, 1)
        psi = state_new(Z2, [((edge, edge), GENERIC4)])
        out = project_state(pm, phi, psi)
        assert out.coords.tolist() == [[3 * edge]]
        weight = np.exp(1j * phi * np.array([float(on_position(pm.sigma_array, (edge, edge)))]))
        assert bits(out.coins).tobytes() == bits(GENERIC4 * weight).tobytes()
        pm = llattice_quotient()
        out = project_state(pm, phi, state_new(pm.source, [((edge, edge), (1, 0))]))
        assert out.coords.tolist() == [[2 * edge]]

    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi])
    def test_fiber_sums_match_add_at(self, rng, phi):
        # 3 fibers of 80 terms each; -0.0 entries and explicit zero vectors
        # mixed in, so the sums must match np.add.at bit for bit.
        sites = [(x, y) for x in range(3) for y in range(-40, 40)]
        coins = rng.normal(size=(len(sites), 4)) + 1j * rng.normal(size=(len(sites), 4))
        coins[::7] = 0.0
        coins[1::7] = complex(-0.0, -0.0)
        coins[2::5, 1] = complex(-0.0, 0.0)
        coins[3::5, 2] = complex(0.0, -0.0)
        psi = state_new(Z2, list(zip(sites, coins)))
        pm = lattice_quotient(1, 0)
        out = project_state(pm, phi, psi)

        terms = psi.coins
        if phi != 0.0:
            terms = terms * np.exp(1j * phi * pm.sigma_array(psi.coords))[:, None]
        fibers, inverse = np.unique(pm.rho_array(psi.coords), axis=0, return_inverse=True)
        expected = np.zeros((len(fibers), 4), dtype=np.complex128)
        np.add.at(expected, inverse.ravel(), terms)
        assert np.array_equal(out.coords, fibers)
        assert np.array_equal(
            np.ascontiguousarray(out.coins).view(np.uint64), expected.view(np.uint64)
        )

    @pytest.mark.parametrize("phi", [0.0, 0.5])
    def test_fortran_ordered_coin_block(self, rng, phi):
        psi = random_sparse_state(Z2, rng, points=6, radius=2)
        fortran = WalkState.from_blocks(Z2, psi.coords, np.asfortranarray(psi.coins))
        pm = lattice_quotient(1, 0)
        out = project_state(pm, phi, fortran)
        assert np.array_equal(out.coins, project_state(pm, phi, psi).coins)

    def test_phase_weights(self):
        pm = cyclic_quotient(4)
        psi = state_new(line(), [((5,), (1, 0))])
        phi = math.pi / 3
        out = project_state(pm, phi, psi)
        assert out.support[(1,)][0] == pytest.approx(np.exp(1j * phi * 5))

    def test_phase_needs_sigma(self):
        bare = ProjectionMap(
            source=Z2,
            target=lattice_quotient(1, 0).target,
            rho_array=lambda c: c[:, :1],
            name="no-sigma",
        )
        psi = state_new(Z2, [((0, 0), GENERIC4)])
        project_state(bare, 0.0, psi)  # fine without phases
        with pytest.raises(MissingSigma):
            project_state(bare, 0.5, psi)
        walk = WalkSpec(Z2, CoinAssignment.homogeneous(grover_coin()))
        assert bare.sigma_c is None and induced_walk(walk, bare, 0.0).phase is None
        with pytest.raises(MissingSigma):
            induced_walk(walk, bare, 0.5)

    def test_normalize_flag(self, rng):
        psi = random_sparse_state(Z2, rng)
        from qwproj import norm

        out = project_state(lattice_quotient(1, 0), 0.0, psi, normalize=True)
        assert norm(out) == pytest.approx(1.0, abs=1e-13)

    def test_linearity(self, rng):
        pm = lattice_quotient(2, 1)
        a = random_sparse_state(Z2, rng)
        b = random_sparse_state(Z2, rng)
        za, zb = 1.1 - 0.2j, 0.4 + 0.9j
        phi = 0.37
        lhs = project_state(pm, phi, add(scale(za, a), scale(zb, b)))
        rhs = add(
            scale(za, project_state(pm, phi, a)), scale(zb, project_state(pm, phi, b))
        )
        assert max_abs_difference(lhs, rhs) < 1e-12


class TestProjectionMemory:
    """The fiber sums bin one coin component at a time, so a projection holds
    no index block over the (site, component) slots and no weighted copy of
    the coin block."""

    @pytest.mark.parametrize("phi, bound", [(0.0, 0.4e6), (0.7, 1.0e6)])
    def test_projection_peak(self, plane_state, phi, bound):
        # the 10 201-site coin block is 0.65 MB; the slot block took the
        # peak to 1.50 MB at phi = 0 and 1.78 MB at phi = 0.7
        pm = catalog.scenario("grover2d_to_lazy").pmap
        peak = traced_peak(lambda: projection_module._project_phases(pm, (phi,), plane_state))
        assert peak < bound


class TestCoinHomogeneity:
    def window(self):
        return [(i, j) for i in range(-3, 4) for j in range(-3, 4)]

    def test_homogeneous_passes(self):
        report = check_coin_homogeneity(GROVER2D, lattice_quotient(1, 0), self.window())
        assert report.passed

    def test_class_constant_coin_passes(self):
        pm = cyclic_quotient(3)
        coins = [hadamard_coin(), np.eye(2), np.array([[0, 1], [1, 0]], dtype=complex)]
        spec = WalkSpec(
            line(), CoinAssignment.positional(lambda p: coins[p[0] % 3], 2)
        )
        report = check_coin_homogeneity(spec, pm, [(i,) for i in range(-9, 10)])
        assert report.passed and report.classes == 3

    def test_fiber_varying_coin_fails(self):
        spec = WalkSpec(
            Z2,
            CoinAssignment.positional(
                lambda p: grover_coin() if p[1] % 2 == 0 else np.eye(4), 4
            ),
        )
        report = check_coin_homogeneity(spec, lattice_quotient(1, 0), self.window())
        assert not report.passed
        x, y, dev = report.witness
        assert x[0] == y[0] and dev > 0.4

    def test_block_window_is_the_tuple_window(self):
        seen = []

        def coin(p):
            seen.append(p)
            return grover_coin() if p[1] % 2 == 0 else np.eye(4)

        spec = WalkSpec(Z2, CoinAssignment.positional(coin, 4))
        pm = lattice_quotient(1, 0)
        by_tuples = check_coin_homogeneity(spec, pm, self.window())
        asked = len(seen)
        by_block = check_coin_homogeneity(spec, pm, np.array(self.window(), dtype=np.int64))
        assert by_block == by_tuples
        # the coin function and the witness see tuples of Python ints
        assert seen[asked:] == seen[:asked]
        assert all(type(c) is int for p in seen for c in p)
        assert all(type(c) is int for p in by_block.witness[:2] for c in p)


# Every entry point that checks the space of its operand, given a state or a
# walk on the plane where one on the line is expected.
PLANE_STATE = state_new(Z2, [((0, 0), GENERIC4)])
SPACE_CHECKS = {
    "apply_coin": lambda: apply_coin(HADAMARD_LINE, PLANE_STATE),
    "apply_step": lambda: apply_step(HADAMARD_LINE, PLANE_STATE),
    "evolve_recurrence": lambda: evolve_recurrence(HADAMARD_LINE, PLANE_STATE, 1),
    "project_state": lambda: project_state(cyclic_quotient(4), 0.0, PLANE_STATE),
    "induced_walk": lambda: induced_walk(GROVER2D, cyclic_quotient(4)),
    "diff_norm": lambda: diff_norm(state_new(line(), [((0,), (1, 0))]), PLANE_STATE),
}


@pytest.mark.parametrize("entry", SPACE_CHECKS)
def test_space_mismatch_at_every_entry_point(entry):
    with pytest.raises(SpaceMismatch, match="is on 'z2', expected 'z1'"):
        SPACE_CHECKS[entry]()


class TestInducedWalk:
    def test_lazy_line(self):
        spec = induced_walk(GROVER2D, lattice_quotient(1, 0))
        assert [d.delta[0] for d in spec.space.displacements] == [1, -1, 0, 0]
        assert spec.coin is GROVER2D.coin and spec.phase is None

    def test_circle_with_twist(self):
        phi = math.pi / 5
        spec = induced_walk(HADAMARD_LINE, cyclic_quotient(4), phi)
        assert spec.space.name == "circle4"
        assert spec.phase.phi == phi and spec.phase.sigma_c == {"R": 1, "L": -1}

    def test_llattice_gives_two_coin_line(self):
        pm = llattice_quotient()
        parent = WalkSpec(pm.source, CoinAssignment.homogeneous(hadamard_coin()))
        spec = induced_walk(parent, pm)
        assert spec.space.name == "z1(('a', 1), ('b', -1))" and spec.coin.dimension == 2
        assert [d.delta[0] for d in spec.space.displacements] == [1, -1]

    def test_identity_projection_reproduces_walk(self):
        spec = induced_walk(GROVER2D, identity_map(Z2))
        assert spec.space.name == GROVER2D.space.name == "z2"
        assert spec.coin is GROVER2D.coin

    def test_inhomogeneous_coin_rejected(self):
        spec = WalkSpec(
            Z2,
            CoinAssignment.positional(
                lambda p: grover_coin() if p[1] % 2 == 0 else np.eye(4), 4
            ),
        )
        window = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
        with pytest.raises(InhomogeneousCoin):
            induced_walk(spec, lattice_quotient(1, 0), window=window)

    def test_positional_needs_window(self):
        spec = WalkSpec(Z2, CoinAssignment.positional(lambda p: grover_coin(), 4))
        with pytest.raises(InvalidParameter):
            induced_walk(spec, lattice_quotient(1, 0))

    def test_class_constant_coin_descends(self, rng):
        pm = cyclic_quotient(3)
        coins = [hadamard_coin(), np.eye(2), np.array([[0, 1], [1, 0]], dtype=complex)]
        parent = WalkSpec(line(), CoinAssignment.positional(lambda p: coins[p[0] % 3], 2))
        window = [(i,) for i in range(-12, 13)]
        spec = induced_walk(parent, pm, window=window)
        # the induced coin at circle position m is the class coin of residue m
        for m in range(3):
            np.testing.assert_array_equal(spec.coin.at((m,)), coins[m])
        psi = random_sparse_state(line(), rng, points=3, radius=4)
        report = verify_commutation(parent, pm, 0.0, psi, 8)
        assert report.passed


class TestPerStepIntertwining:
    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_step_and_coin_commute_with_projection(self, rng, phi):
        # 50 trials per (pairing, phi), so 100 random states per pairing
        for parent, pm in catalog_pairings():
            induced = induced_walk(parent, pm, phi)
            for _ in range(50):
                psi = random_sparse_state(parent.space, rng, points=3)
                try:
                    projected = project_state(pm, phi, psi)
                except NullProjection:
                    continue
                step_lhs = project_state(pm, phi, apply_step(parent, psi))
                step_rhs = apply_step(induced, projected)
                assert diff_norm(step_lhs, step_rhs) < 1e-12
                coin_lhs = project_state(pm, phi, apply_coin(parent, psi))
                coin_rhs = apply_coin(induced, projected)
                assert diff_norm(coin_lhs, coin_rhs) < 1e-12


class TestVerifyCommutation:
    def test_lazy_projection_30_steps(self):
        psi = state_new(Z2, [((0, 0), GENERIC4)])
        report = verify_commutation(GROVER2D, lattice_quotient(1, 0), 0.0, psi, 30)
        assert report.passed and report.max_residual < 1e-10
        assert report.steps == 30 and len(report.residuals) == 30

    def test_identity_projection_residual_zero(self, rng):
        psi = random_sparse_state(Z2, rng)
        report = verify_commutation(GROVER2D, identity_map(Z2), 0.0, psi, 10)
        assert report.max_residual == 0.0

    def test_twisted_circle_30_steps(self):
        psi = state_new(line(), [((0,), np.array([1, 1j]) / math.sqrt(2))])
        report = verify_commutation(
            HADAMARD_LINE, cyclic_quotient(4), math.pi / 3, psi, 30
        )
        assert report.passed and report.max_residual < 1e-10

    def test_null_initial_projection_propagates(self):
        psi = state_new(Z2, [((0, 0), GENERIC4), ((0, 5), -GENERIC4)])
        with pytest.raises(NullProjection):
            verify_commutation(GROVER2D, lattice_quotient(1, 0), 0.0, psi, 5)

    def test_report_serialization(self):
        psi = state_new(Z2, [((0, 0), GENERIC4)])
        report = verify_commutation(GROVER2D, lattice_quotient(1, 1), 0.0, psi, 3)
        data = report.to_json_dict()
        assert set(data) == {"steps", "residuals", "max_residual", "passed", "psi0_norm"}
        assert data["steps"] == 3 and len(data["residuals"]) == 3
        assert data["passed"] is True and data["psi0_norm"] == norm(psi)

    @pytest.mark.parametrize("n", [-1, True, 2.5, 3.0])
    def test_step_count_must_be_a_nonnegative_integer(self, n):
        psi = state_new(Z2, [((0, 0), GENERIC4)])
        with pytest.raises(InvalidParameter):
            verify_commutation(GROVER2D, lattice_quotient(1, 0), 0.0, psi, n)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        psi = state_new(Z2, [((0, 0), GENERIC4)])
        with pytest.raises(InvalidParameter, match="tol must be finite and > 0"):
            verify_commutation(GROVER2D, lattice_quotient(1, 0), 0.0, psi, 3, tol=tol)

    def test_inhomogeneous_coin_names_plain_tuples(self):
        # The coin changes with the parity of y inside every column x, and
        # the first column with two sites in the 2-step window is x = -1.
        coin = CoinAssignment.positional(
            lambda p: grover_coin() if p[1] % 2 == 0 else np.eye(4), 4
        )
        psi = state_new(Z2, [((0, 0), GENERIC4)])
        with pytest.raises(InhomogeneousCoin) as err:
            verify_commutation(WalkSpec(Z2, coin), lattice_quotient(1, 0), 0.0, psi, 2)
        assert "rho((-1, -1)) = rho((-1, 0))" in str(err.value)


class TestScaleRelativeTolerance:
    """The verdict depends on the residual relative to the norm of psi0."""

    @pytest.mark.parametrize("factor", [1e-8, 1e8])
    def test_verdict_unchanged_by_scaling_psi0(self, factor):
        pm = cyclic_quotient(4)
        psi = state_new(line(), [((0,), np.array([1, 1j]) / math.sqrt(2))])
        # the twisted circle's residual is small but nonzero, so a tenth of
        # it is a tolerance that must fail at every scale
        unit = verify_commutation(HADAMARD_LINE, pm, math.pi / 3, psi, 12)
        assert unit.passed and unit.max_residual > 0.0
        for tol in (1e-10, unit.max_residual / 10):
            base = verify_commutation(HADAMARD_LINE, pm, math.pi / 3, psi, 12, tol=tol)
            scaled = verify_commutation(
                HADAMARD_LINE, pm, math.pi / 3, scale(factor, psi), 12, tol=tol
            )
            assert scaled.passed == base.passed == (tol == 1e-10)


    @pytest.mark.parametrize("name", catalog.SCENARIO_NAMES)
    def test_verdict_and_relative_residual_at_any_scale(self, name):
        desc = catalog.scenario(name)
        psi = random_sparse_state(desc.walk.space, np.random.default_rng(7), points=3, radius=3)
        unit = verify_commutation(desc.walk, desc.pmap, math.pi / 3, psi, 12)
        for k in range(-300, 301, 50):
            report = verify_commutation(desc.walk, desc.pmap, math.pi / 3, scale(10.0**k, psi), 12)
            assert report.passed == unit.passed
            assert report.max_residual / report.psi0_norm == pytest.approx(
                unit.max_residual / unit.psi0_norm, rel=0, abs=1e-12)


class TestNormBehaviour:
    def test_projection_can_change_norm_both_ways(self):
        pm = lattice_quotient(1, 0)
        gamma = np.array([1, 0, 0, 0]) / math.sqrt(2)
        boosted = state_new(Z2, [((0, 0), gamma), ((0, 1), gamma)])
        shrunk = state_new(
            Z2, [((0, 0), (0.8, 0, 0, 0)), ((0, 1), (-0.59, 0, 0, 0))]
        )
        from qwproj import norm

        assert norm(project_state(pm, 0.0, boosted)) > norm(boosted) * 1.01
        assert norm(project_state(pm, 0.0, shrunk)) < norm(shrunk) * 0.99


def reference_residuals(walk, pm, phi, psi0, n, window=None):
    """The residuals as the unfused definition computes them: project the
    evolved parent and diff it against the evolved projection, step by step."""
    induced = induced_walk(walk, pm, phi, window=window)
    upper, lower = psi0, project_state(pm, phi, psi0)
    out = []
    for _ in range(n):
        upper, lower = evolve(walk, upper, 1), evolve(induced, lower, 1)
        out.append(diff_norm(project_state(pm, phi, upper), lower))
    return out


def shifted_line_map(offset):
    """The line relabeled by x -> x + offset: a bijective quotient whose
    target sits ``offset`` away from the source."""
    return ProjectionMap(
        source=line(),
        target=line(),
        rho_array=lambda c: c.astype(object) + offset,  # exact, at any offset
        sigma_array=lambda c: 0 * c[:, 0],
        section=lambda q: (q[0] - offset,),
        name=f"shift({offset})",
    )


TOP = 2**63 - 1


class TestFusedCommutationLoop:
    """verify_commutation's one-merge loop against the unfused definition."""

    @pytest.mark.parametrize("name", catalog.SCENARIO_NAMES)
    @pytest.mark.parametrize("phi", [0.0, math.pi / 3, 1.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_residuals_are_bitwise_the_unfused_ones(self, name, phi, seed):
        desc = catalog.scenario(name)
        rng = np.random.default_rng(seed)
        psi = random_sparse_state(desc.walk.space, rng, points=3, radius=3)
        report = verify_commutation(desc.walk, desc.pmap, phi, psi, 12)
        expected = reference_residuals(desc.walk, desc.pmap, phi, psi, 12)
        assert np.array(report.residuals).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("phi", [0.0, 1.0])
    def test_positional_coin(self, rng, phi):
        pm = cyclic_quotient(3)
        coins = [hadamard_coin(), np.eye(2), np.array([[0, 1], [1, 0]], dtype=complex)]
        parent = WalkSpec(line(), CoinAssignment.positional(lambda p: coins[p[0] % 3], 2))
        psi = random_sparse_state(line(), rng, points=3, radius=4)
        report = verify_commutation(parent, pm, phi, psi, 10)
        window = reachable_window(line(), psi.support, 10)
        expected = reference_residuals(parent, pm, phi, psi, 10, window=window)
        assert np.array(report.residuals).tobytes() == np.array(expected).tobytes()
        assert report.passed

    @staticmethod
    def parent_steps(monkeypatch):
        """The support size of each state apply_step returns, as it returns it."""
        sizes = []
        step = walk_module.apply_step

        def counted(spec, state):
            out = step(spec, state)
            sizes.append(len(out.coins))
            return out

        monkeypatch.setattr(walk_module, "apply_step", counted)
        return sizes

    @pytest.mark.parametrize("offset", [TOP - 5, -(TOP - 5)])
    def test_induced_walk_past_int64_is_exact(self, offset):
        # The parent stays near 0; the induced walk starts 5 sites from the
        # int64 limit and crosses it on its sixth step.
        pm = shifted_line_map(offset)
        psi = state_new(line(), [((0,), np.array([1, 1j]) / math.sqrt(2))])
        report = verify_commutation(HADAMARD_LINE, pm, 0.0, psi, 10)
        expected = reference_residuals(HADAMARD_LINE, pm, 0.0, psi, 10)
        assert bits(report.residuals).tobytes() == bits(expected).tobytes()
        assert report.passed and report.max_residual == 0.0
        induced = evolve(induced_walk(HADAMARD_LINE, pm), project_state(pm, 0.0, psi), 10)
        assert max(abs(x) for (x,) in induced.support) == TOP + 5

    @pytest.mark.parametrize("phi", [0.0, math.pi / 3])
    @pytest.mark.parametrize("start", [TOP - 3, -(TOP - 3)])
    def test_parent_past_int64_is_exact(self, monkeypatch, start, phi):
        # The parent crosses the int64 limit on its fourth step; its weights
        # come off the table before that and are computed after.
        pm = cyclic_quotient(4)
        psi = state_new(line(), [((start,), np.array([1, 1j]) / math.sqrt(2))])
        sizes = self.parent_steps(monkeypatch)
        report = verify_commutation(HADAMARD_LINE, pm, phi, psi, 10)
        assert len(sizes) == 10
        expected = reference_residuals(HADAMARD_LINE, pm, phi, psi, 10)
        assert bits(report.residuals).tobytes() == bits(expected).tobytes()
        if phi == 0.0:
            assert report.passed

    @pytest.mark.parametrize("name", catalog.SCENARIO_NAMES)
    @pytest.mark.parametrize("far", [2**70, -(2**70)])
    def test_scenarios_commute_far_beyond_int64(self, name, far):
        desc = catalog.scenario(name)
        rng = np.random.default_rng(len(name))
        psi = random_sparse_state(desc.walk.space, rng, points=3, radius=3, offset=(far, -far))
        assert psi.coords.dtype == object
        report = verify_commutation(desc.walk, desc.pmap, 0.0, psi, 12)
        expected = reference_residuals(desc.walk, desc.pmap, 0.0, psi, 12)
        assert bits(report.residuals).tobytes() == bits(expected).tobytes()
        assert report.passed

    def test_parent_steps_through_apply_step(self, monkeypatch):
        # A traced benchmark run reads the final parent support as the
        # largest apply_step output; the parent must keep stepping there.
        desc = catalog.scenario("grover2d_to_lazy")
        psi = desc.distinguished_states["origin"]()
        sizes = self.parent_steps(monkeypatch)
        report = verify_commutation(desc.walk, desc.pmap, desc.phi, psi, 100)
        assert report.passed
        assert len(sizes) == 100
        assert max(sizes) == sizes[-1] == 101 * 101


@pytest.mark.parametrize("name", catalog.SCENARIO_NAMES)
@given(
    seed=st.integers(0, 2**32 - 1),
    offset=st.tuples(*[st.sampled_from([0, 7, 2**70, -(2**70), TOP - 3, -(TOP - 3)])] * 2),
)
@settings(derandomize=True, max_examples=8, deadline=None)
def test_positional_coins_constant_on_fibers_commute(name, seed, offset):
    # A Haar coin picked by the fiber is constant on fibers, so the walk
    # descends to the quotient, at any offset.
    desc = catalog.scenario(name)
    space, pm = desc.walk.space, desc.pmap
    rng = np.random.default_rng(seed)
    mats = [haar_unitary(space.coin_dimension, rng) for _ in range(3)]
    coin = CoinAssignment.positional(
        lambda p: mats[sum(on_position(pm.rho_array, p)) % 3], space.coin_dimension
    )
    psi = random_sparse_state(space, rng, points=3, radius=3, offset=offset)
    assert verify_commutation(WalkSpec(space, coin), pm, 0.0, psi, 8).passed


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


class TestRepeatingInducedMerges:
    """The induced walk reuses the merge of the step two back when its
    coordinate block repeats, and the parent's weights come from a table."""

    @staticmethod
    def induced_merges(monkeypatch):
        """The coordinate block of each merge verify_commutation computes on
        the induced walk's finite circle; the parent's merges on the line are
        not counted."""
        blocks = []
        merge = walk_module._merge_images

        def counted(space, coords):
            if space.positions is not None:
                blocks.append(coords.copy())
            return merge(space, coords)

        monkeypatch.setattr(walk_module, "_merge_images", counted)
        return blocks

    @staticmethod
    def induced_supports(desc, phi, psi, n):
        """The coordinate block each of the n induced steps starts from."""
        lower = project_state(desc.pmap, phi, psi)
        spec = induced_walk(desc.walk, desc.pmap, phi)
        blocks = []
        for _ in range(n):
            blocks.append(lower.coords)
            lower = evolve(spec, lower, 1)
        return blocks

    @pytest.mark.parametrize("n_circle, merges", [(4, 3), (5, 6)])
    def test_merges_until_the_supports_cycle(self, monkeypatch, n_circle, merges):
        # The 4-circle's supports alternate between {1, 3} and {0, 2} after
        # the first step; the 5-circle's fill it and stay, which costs one
        # more merge than it has distinct supports.
        desc = catalog.scenario("line_to_circle", n_circle=n_circle, phi=math.pi / 3)
        psi = desc.distinguished_states["origin"]()
        supports = self.induced_supports(desc, desc.phi, psi, 40)
        changed = [
            t for t in range(40) if t < 2 or not np.array_equal(supports[t], supports[t - 2])
        ]
        blocks = self.induced_merges(monkeypatch)
        report = verify_commutation(desc.walk, desc.pmap, desc.phi, psi, 40)
        assert len(blocks) == len(changed) == merges
        for block, t in zip(blocks, changed):
            assert np.array_equal(block, supports[t])
        expected = reference_residuals(desc.walk, desc.pmap, desc.phi, psi, 40)
        assert bits(report.residuals).tobytes() == bits(expected).tobytes()
        assert report.passed

    def test_supports_that_never_repeat_merge_every_step(self, monkeypatch, rng):
        desc = catalog.scenario("line_to_circle", n_circle=64, phi=1.0)
        psi = random_sparse_state(desc.walk.space, rng, points=3, radius=3)
        blocks = self.induced_merges(monkeypatch)
        report = verify_commutation(desc.walk, desc.pmap, desc.phi, psi, 12)
        assert len(blocks) == 12
        expected = reference_residuals(desc.walk, desc.pmap, desc.phi, psi, 12)
        assert bits(report.residuals).tobytes() == bits(expected).tobytes()

    @pytest.mark.parametrize("phi", [math.pi / 3, -math.pi / 4, 1.0, 2.5])
    def test_table_holds_the_exp_values(self, phi):
        pm = cyclic_quotient(4)
        psi = state_new(line(), [((-3,), (1, 0)), ((2,), (0, 1))])
        lo, values = projection_module._phase_table(pm, phi, psi, 50)
        assert (lo, len(values)) == (-53, 106)
        sigma = np.arange(lo, lo + len(values))
        assert bits(values).tobytes() == bits(np.exp(1j * phi * sigma)).tobytes()
        assert projection_module._phase_table(pm, 0.0, psi, 50) is None

    def test_weights_outside_the_table_are_computed(self):
        # Each site is a fiber of its own with coin 1, so the fiber sums are
        # the weights.  The table holds marked values, not exp's, so a block
        # inside it shows that they were read off it; a block reaching out of
        # it, or one of exact integers, has the phase builder make them.
        phi = 0.9
        table = (-2, np.full(5, 0.5 - 0.25j))
        for sigma, tabled in (
            (np.array([-2, 2, 0]), True),
            (np.array([-3, 0]), False),
            (np.array([0, 3]), False),
            (np.array([7]), False),
            (np.array([-2, 2], dtype=object), False),
        ):
            n = len(sigma)
            ones = np.ones((n, 1), dtype=np.complex128)
            sums = projection_module._fiber_sums(phi, ones, sigma, np.arange(n), n, table)
            expected = table[1][:n] if tabled else walk_module._phase_factors(phi, sigma)
            assert bits(sums[:, 0]).tobytes() == bits(expected).tobytes()

    def test_wide_initial_sigma_builds_no_table(self):
        pm = cyclic_quotient(4)
        psi = state_new(line(), [((0,), (1, 0)), ((21,), (0, 1))])
        assert projection_module._phase_table(pm, 1.0, psi, 10) is None
        assert projection_module._phase_table(pm, 1.0, psi, 11) is not None
        expected = reference_residuals(HADAMARD_LINE, pm, 1.0, psi, 10)
        report = verify_commutation(HADAMARD_LINE, pm, 1.0, psi, 10)
        assert bits(report.residuals).tobytes() == bits(expected).tobytes()

    def test_table_grows_with_the_walk_not_the_step_weight(self):
        # A step of a jump line folded onto a circle moves sigma by the jump,
        # so a table over everything n steps reach would hold 2*n*jump + 1
        # entries; past 4*n + 1 the parent's weights are made step by step.
        n, phi = 50, 0.7
        for jump, size in ((1, 2 * n + 1), (2, 4 * n + 1), (10**4, None)):
            pm = cyclic_quotient(4, line([("R", jump), ("L", -jump)]))
            psi = state_new(pm.source, [((0,), (1, 0))])
            table = projection_module._phase_table(pm, phi, psi, n)
            assert (table and len(table[1])) == size
        # The jump-10**7 walk reaches 101 sigma values, but its table would
        # hold 10**9 + 1 entries.  It checks without one, and its
        # residuals are those of the unfused definition.  It does not pass:
        # the weights are taken in float64 from sigma up to 5*10**8, so they
        # carry rounding far above the tolerance (absolute sigma, not this
        # table).
        pm = cyclic_quotient(4, line([("R", 10**7), ("L", -(10**7))]))
        walk = WalkSpec(pm.source, CoinAssignment.homogeneous(hadamard_coin()))
        psi = state_new(pm.source, [((0,), np.array([1, 1j]) / math.sqrt(2))])
        report = verify_commutation(walk, pm, phi, psi, n)
        expected = reference_residuals(walk, pm, phi, psi, n)
        assert bits(report.residuals).tobytes() == bits(expected).tobytes()
        assert not report.passed

    def test_sigma_leaving_the_table_falls_back_to_exp(self):
        # sigma(x) = x**2 is not additive: its step weights, read at the
        # origin, are one per step, so the table spans [-n, n] and the
        # parent's sigma leaves it after sqrt(n) steps.
        base = cyclic_quotient(4)
        pm = ProjectionMap(
            source=base.source,
            target=base.target,
            rho_array=base.rho_array,
            sigma_array=lambda c: c[:, 0] ** 2,
            section=base.section,
            name="mod4-squared-sigma",
        )
        phi, n = 0.7, 30
        psi = state_new(line(), [((0,), np.array([1, 1j]) / math.sqrt(2))])
        lo, values = projection_module._phase_table(pm, phi, psi, n)
        final = evolve(HADAMARD_LINE, psi, n)
        assert pm.sigma_array(final.coords).max() >= lo + len(values)
        report = verify_commutation(HADAMARD_LINE, pm, phi, psi, n)
        expected = reference_residuals(HADAMARD_LINE, pm, phi, psi, n)
        assert bits(report.residuals).tobytes() == bits(expected).tobytes()
        assert not report.passed

    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi])
    def test_one_phase_sums_are_the_multi_phase_ones(self, rng, phi):
        sites = [(x, y) for x in range(3) for y in range(-20, 20)]
        coins = rng.normal(size=(len(sites), 4)) + 1j * rng.normal(size=(len(sites), 4))
        coins[::7] = complex(-0.0, -0.0)
        psi = state_new(Z2, list(zip(sites, coins)))
        pm = lattice_quotient(1, 0)
        fibers, inverse = np.unique(pm.rho_array(psi.coords), axis=0, return_inverse=True)
        inverse = inverse.ravel()
        sigma = pm.sigma_array(psi.coords)
        alone = projection_module._fiber_sums(phi, psi.coins, sigma, inverse, len(fibers), None)
        project = projection_module._project_phases
        sites, family, landed = project(pm, (0.3, phi, 0.0), psi)
        assert alone.shape == (len(fibers), 4) and np.array_equal(sites, fibers)
        assert bits(alone).tobytes() == bits(family[1]).tobytes() and len(landed) == 0
        table = projection_module._phase_table(pm, phi, psi, 1)
        _, (tabled,), _ = project(pm, (phi,), psi, table=table)
        assert bits(tabled).tobytes() == bits(alone).tobytes()
        # Merged sites join the fibers: a site no fiber reaches sums to zero.
        merge = np.array([[5], [1], [-2]])
        sites, (merged,), landed = project(pm, (phi,), psi, merge, table)
        assert sites.tolist() == [[-2], [0], [1], [2], [5]]
        assert sites[landed].tolist() == merge.tolist()
        assert bits(merged[1:4]).tobytes() == bits(alone).tobytes()
        assert not merged[[0, 4]].any()

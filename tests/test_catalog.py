"""Catalog scenarios, trapped states, and the three-coin restriction."""

import itertools
import math

import numpy as np
import pytest

from qwproj import (
    CoinAssignment,
    InvalidParameter,
    StateOutsideSubspace,
    SubspaceNotInvariant,
    WalkSpec,
    check_rho_consistency,
    circle,
    diff_norm,
    evolve,
    grover_coin,
    induced_walk,
    inner,
    lattice_quotient,
    max_abs_difference,
    norm,
    project_state,
    projected_trapped_state,
    restrict_to_three_coin,
    scale,
    scenario,
    state_new,
    trapped_state,
    SCENARIO_NAMES,
)


class TestGroverCoin:
    def test_printed_entries(self):
        c = grover_coin()
        assert c[0, 0] == -0.5
        expected = 0.5 * np.array(
            [[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]]
        )
        np.testing.assert_array_equal(c, expected)

    def test_unitarity_residual(self):
        c = grover_coin()
        assert np.max(np.abs(c.conj().T @ c - np.eye(4))) < 1e-15

    def test_involution(self):
        np.testing.assert_allclose(grover_coin() @ grover_coin(), np.eye(4), atol=1e-15)


def eigenvalue_of(spec, state):
    """Numerically determined eigenvalue, with the residual of the eigenrelation."""
    advanced = evolve(spec, state, 1)
    lam = inner(state, advanced) / inner(state, state)
    return lam, diff_norm(advanced, scale(lam, state))


class TestTrappedStates:
    def test_support_and_amplitudes(self):
        psi = trapped_state(0, 0, +1)
        assert set(psi.support) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert psi.support[(0, 0)][1] == pytest.approx(1 / (2 * math.sqrt(2)))
        assert norm(psi) == pytest.approx(1.0, abs=1e-15)

    def test_sign_flips_two_sites(self):
        plus, minus = trapped_state(0, 0, +1), trapped_state(0, 0, -1)
        np.testing.assert_array_equal(plus.support[(0, 1)], -minus.support[(0, 1)])
        np.testing.assert_array_equal(plus.support[(1, 1)], minus.support[(1, 1)])

    def test_bad_sign(self):
        with pytest.raises(InvalidParameter):
            trapped_state(0, 0, 2)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_eigenstate_of_parent_walk(self, sign):
        walk = scenario("grover2d_to_lazy").walk
        psi = trapped_state(1, -2, sign)
        lam, residual = eigenvalue_of(walk, psi)
        assert abs(abs(lam) - 1.0) < 1e-12
        assert residual < 1e-12

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_stays_on_four_sites(self, sign):
        walk = scenario("grover2d_to_lazy").walk
        psi = trapped_state(0, 0, sign)
        sites = set(psi.support)
        evolved = evolve(walk, psi, 12)
        leak = math.sqrt(
            sum(
                float(np.vdot(v, v).real)
                for pos, v in evolved.support.items()
                if pos not in sites
            )
        )
        assert leak < 1e-12


class TestProjectedTrappedStates:
    def test_lazy_minus_kills_left(self):
        psi = projected_trapped_state("lazy", 0, 0, -1)
        assert psi.support[(0,)][1] == 0.0  # L entry
        assert psi.support[(1,)][0] == 0.0  # R entry

    def test_double_line_support(self):
        psi = projected_trapped_state("double_line", 2, 3, +1)
        assert set(psi.support) == {(5,), (6,), (7,)}

    @pytest.mark.parametrize("kind,kl", [("lazy", (1, 0)), ("double_line", (1, 1))])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matches_projection_exactly(self, kind, kl, sign):
        pm = lattice_quotient(*kl)
        projected = project_state(pm, 0.0, trapped_state(3, -1, sign))
        closed_form = projected_trapped_state(kind, 3, -1, sign)
        assert max_abs_difference(projected, closed_form) < 1e-14

    @pytest.mark.parametrize("kind,kl", [("lazy", (1, 0)), ("double_line", (1, 1))])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_eigenstate_of_induced_walk_same_eigenvalue(self, kind, kl, sign):
        parent = scenario("grover2d_to_lazy").walk
        lam_parent, _ = eigenvalue_of(parent, trapped_state(0, 0, sign))
        induced = induced_walk(parent, lattice_quotient(*kl))
        lam, residual = eigenvalue_of(induced, projected_trapped_state(kind, 0, 0, sign))
        assert residual < 1e-12
        assert abs(lam - lam_parent) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameter):
            projected_trapped_state("spiral", 0, 0, +1)


class TestScenarios:
    def test_all_names_build(self):
        for name in SCENARIO_NAMES:
            desc = scenario(name)
            assert desc.pmap is not None
            for build in desc.distinguished_states.values():
                project_state(desc.pmap, desc.phi, build())  # must not cancel

    def test_lazy_displacements(self):
        desc = scenario("grover2d_to_lazy")
        assert [d.delta[0] for d in desc.pmap.target.displacements] == [1, -1, 0, 0]

    def test_jump_displacements(self):
        desc = scenario("lattice_to_jumps", k=3)
        assert [d.delta[0] for d in desc.pmap.target.displacements] == [3, -3, 1, -1]

    def test_circle_twist_parameters(self):
        phi = math.pi / 7
        desc = scenario("line_to_circle", n_circle=6, phi=phi)
        assert desc.phi == phi and desc.pmap.target.name == "circle6"
        spec = induced_walk(desc.walk, desc.pmap, desc.phi)
        assert spec.phase.phi == phi

    def test_circle_phi_zero_is_plain_projection(self, rng):
        from conftest import random_sparse_state

        desc = scenario("line_to_circle")
        psi = random_sparse_state(desc.walk.space, rng, points=3)
        twisted = project_state(desc.pmap, 0.0, psi)
        plain = project_state(desc.pmap, desc.phi, psi)
        assert max_abs_difference(twisted, plain) == 0.0

    def test_consistency_on_default_window(self):
        for name in SCENARIO_NAMES:
            desc = scenario(name)
            window = (
                [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
                if desc.pmap.source.dimension == 2
                else [(i,) for i in range(-8, 9)]
            )
            assert check_rho_consistency(desc.pmap, window).passed

    def test_unknown_scenario(self):
        with pytest.raises(InvalidParameter):
            scenario("hypercube_search")

    def test_invalid_circle_size(self):
        with pytest.raises(InvalidParameter, match="circle size"):
            scenario("line_to_circle", n_circle=0)

    @pytest.mark.parametrize(
        "name, param, value",
        [
            ("lattice_to_jumps", "k", 2.5),
            ("lattice_to_jumps", "k", 3.0),
            ("lattice_to_jumps", "k", True),
            ("line_to_circle", "n_circle", 4.9),
            ("line_to_circle", "n_circle", "4"),
        ],
    )
    def test_non_integer_parameter_refused(self, name, param, value):
        with pytest.raises(InvalidParameter, match=f"{param} must be an integer"):
            scenario(name, **{param: value})

    def test_numpy_integer_parameters_accepted(self):
        assert scenario("lattice_to_jumps", k=np.int64(3)).params == {"k": 3, "l": 1}
        assert scenario("line_to_circle", n_circle=np.int32(5)).pmap.target.name == "circle5"

    @pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n != "lattice_to_jumps"])
    def test_k_refused_where_unread(self, name):
        with pytest.raises(InvalidParameter, match="k is read by lattice_to_jumps only"):
            scenario(name, k=5)

    @pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n != "line_to_circle"])
    def test_n_circle_refused_where_unread(self, name):
        with pytest.raises(InvalidParameter, match="n_circle is read by line_to_circle only"):
            scenario(name, n_circle=7)


class TestThreeCoinRestriction:
    def lazy_walk_with_block_coin(self):
        # block coin: a 3x3 Grover block on (R, L, U), identity on D
        block = np.eye(4, dtype=complex)
        block[:3, :3] = grover_coin(3)
        lazy_space = scenario("grover2d_to_lazy").pmap.target
        return WalkSpec(lazy_space, CoinAssignment.homogeneous(block))

    def test_reduced_walk_matches_full(self):
        spec = self.lazy_walk_with_block_coin()
        psi = state_new(
            spec.space, [((0,), np.array([1, 1j, -1, 0]) / math.sqrt(3))]
        )
        reduced_spec, reduced_psi = restrict_to_three_coin(spec, psi)
        assert reduced_spec.coin.dimension == 3
        full = evolve(spec, psi, 20)
        small = evolve(reduced_spec, reduced_psi, 20)
        for pos, vec in full.support.items():
            assert abs(vec[3]) < 1e-12
            got = small.support.get(pos, np.zeros(3))
            np.testing.assert_allclose(got, vec[:3], atol=1e-12)

    def test_zero_steps_trivial(self):
        spec = self.lazy_walk_with_block_coin()
        psi = state_new(spec.space, [((2,), (1, 0, 0, 0))])
        _, reduced_psi = restrict_to_three_coin(spec, psi)
        np.testing.assert_array_equal(reduced_psi.support[(2,)], [1, 0, 0])

    def test_grover_coin_rejected(self):
        lazy_space = scenario("grover2d_to_lazy").pmap.target
        spec = WalkSpec(lazy_space, CoinAssignment.homogeneous(grover_coin()))
        psi = state_new(lazy_space, [((0,), (1, 0, 0, 0))])
        with pytest.raises(SubspaceNotInvariant):
            restrict_to_three_coin(spec, psi)

    def test_state_outside_subspace_rejected(self):
        spec = self.lazy_walk_with_block_coin()
        psi = state_new(spec.space, [((0,), (0, 0, 0, 1))])
        with pytest.raises(StateOutsideSubspace):
            restrict_to_three_coin(spec, psi)


def _structure(space):
    """What tells two spaces apart: dimension, labels, and where each
    displacement takes the positions of a finite space or of a small box."""
    probe = space.positions or list(itertools.product(range(-2, 3), repeat=space.dimension))
    images = tuple(tuple(d.apply(p) for p in probe) for d in space.displacements)
    return space.dimension, space.labels, images


def test_each_space_is_named_by_its_structure():
    spaces = [lattice_quotient(2, 1).target, lattice_quotient(3, 1).target]
    spaces += [circle(4), circle(5), circle(4, [("R", 2), ("L", -2)])]
    for name in SCENARIO_NAMES:
        desc = scenario(name)
        spaces += [desc.walk.space, desc.pmap.target]
    block = np.eye(4, dtype=complex)
    block[:3, :3] = grover_coin(3)
    lazy = scenario("grover2d_to_lazy").pmap.target
    psi = state_new(lazy, [((0,), (1, 0, 0, 0))])
    restricted, _ = restrict_to_three_coin(WalkSpec(lazy, CoinAssignment.homogeneous(block)), psi)
    spaces += [lazy, restricted.space]
    for a, b in itertools.combinations(spaces, 2):
        assert (a.name == b.name) == (_structure(a) == _structure(b)), (a.name, b.name)
    # z2, z1, llattice, five quotient targets, lattice_quotient(3, 1)'s line,
    # two more circles and the restricted lazy line
    assert len({sp.name for sp in spaces}) == 12

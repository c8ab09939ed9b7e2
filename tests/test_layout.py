"""The component-major storage of the engine's blocks: what it builds, and
that no result depends on the layout of the blocks a caller hands in."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwproj import (
    WalkState,
    catalog,
    evolve,
    induced_walk,
    json_text,
    lattice_2d,
    lattice_quotient,
    line,
    norm,
    position_distribution,
    phase_projection_family,
    project_state,
    verify_commutation,
    walk,
)
from qwproj.spaces import group_rows, pack_positions
from conftest import random_sparse_state

Z2 = lattice_2d()


def component_major(block: np.ndarray) -> bool:
    """Whether an ``(..., n, k)`` block is the view of a C-ordered ``(..., k, n)`` one."""
    return block.swapaxes(-1, -2).flags.c_contiguous


def bits(block: np.ndarray) -> bytes:
    return np.ascontiguousarray(block).view(np.uint64).tobytes()


def as_layout(state: WalkState, order: str) -> WalkState:
    copy = np.asfortranarray if order == "F" else np.ascontiguousarray
    return WalkState.from_blocks(state.space, copy(state.coords), copy(state.coins))


class TestStoredLayout:
    def test_steps_and_merges_build_component_major_blocks(self, rng):
        desc = catalog.scenario("grover2d_to_lazy")
        psi = random_sparse_state(Z2, rng, points=40, radius=9)
        assert psi.coords.flags.f_contiguous  # a coordinate block from positions
        out = evolve(desc.walk, psi, 3)
        assert component_major(out.coords) and component_major(out.coins)
        sites, _ = group_rows(np.ascontiguousarray(out.coords))
        assert component_major(sites)
        family = phase_projection_family(desc.walk, lattice_quotient(2, 1), psi, 3, 5)
        assert all(component_major(state.coins) for _, state in family)

    def test_few_and_many_rows_group_alike(self, rng):
        # the lexsort branch (few rows) and the box branch both give
        # component-major sites, equal to np.unique's
        for m in (5, 500):
            rows = pack_positions(rng.integers(-6, 7, size=(m, 2)), 2)
            sites, inverse = group_rows(rows)
            want, where = np.unique(rows, axis=0, return_inverse=True)
            assert component_major(sites)
            assert np.array_equal(sites, want) and np.array_equal(inverse, where.ravel())


class TestFamilyStepsLikeItsMembers:
    """A batched step gives each walk of the family the bits of its own step,
    and both are the bits of one coin product and a plain scatter."""

    SPEC = induced_walk(catalog.scenario("grover2d_to_lazy").walk, lattice_quotient(2, 1), 0.7)

    def reference(self, coords, coins, phases):
        """One step from first principles: one product for the coin, then
        each coin component moved to its image."""
        space = self.SPEC.space
        coined = coins @ self.SPEC.coin.matrix.T * phases
        images = np.concatenate([d.apply_array(coords) for d in space.displacements])
        sites, inverse = np.unique(images, axis=0, return_inverse=True)
        inverse = inverse.ravel()
        n, dim = coins.shape
        out = np.zeros((len(sites), dim), dtype=np.complex128)
        for c in range(dim):
            out[inverse[c * n : (c + 1) * n], c] = coined[:, c]
        return sites, out

    # The shape a batched scatter was slow at, and the coin panel boundary.
    @pytest.mark.parametrize("walks, n", [(33, 1000), (3, 4095), (3, 4096), (3, 4097)])
    def test_batched_step_is_bitwise_the_single_steps(self, rng, walks, n):
        coords = pack_positions([(x,) for x in range(0, 3 * n, 3)], 1)
        coins = rng.normal(size=(walks, n, 4)) + 1j * rng.normal(size=(walks, n, 4))
        weights = np.array([self.SPEC.phase.sigma_c[lbl] for lbl in self.SPEC.space.labels])
        phases = np.exp(1j * np.linspace(0.0, 6.0, walks)[:, None] * weights)[:, None, :]
        sites, batched = next(walk._walk_blocks(self.SPEC, coords, coins, 1, phases))
        assert component_major(batched)
        for j in range(walks):
            alone = next(walk._walk_blocks(self.SPEC, coords, coins[j], 1, phases[j, 0]))[1]
            want_sites, want = self.reference(coords, coins[j], phases[j, 0])
            assert np.array_equal(sites, want_sites)
            assert bits(batched[j]) == bits(alone) == bits(want), j


class TestLayoutIndependence:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(catalog.SCENARIO_NAMES),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(0, 5),
        phi=st.sampled_from([0.0, 0.5, math.pi / 3]),
    )
    def test_c_and_fortran_blocks_give_the_same_bits(self, name, seed, steps, phi):
        desc = catalog.scenario(name)
        psi = random_sparse_state(desc.walk.space, np.random.default_rng(seed), points=5, radius=3)

        def results(state):
            evolved = evolve(desc.walk, state, steps)
            report = verify_commutation(desc.walk, desc.pmap, phi, state, steps)
            projected = project_state(desc.pmap, phi, state)
            family = phase_projection_family(desc.walk, desc.pmap, state, steps, 3)
            return (
                bits(evolved.coins),
                json_text({"evolved": evolved, "projected": projected}),
                np.array(report.residuals).tobytes(),
                bits(projected.coins),
                [bits(member.coins) for _, member in family],
            )

        assert results(as_layout(psi, "C")) == results(as_layout(psi, "F"))

    def test_support_vectors_do_not_depend_on_the_layout(self, rng):
        # With eight coin components BLAS sums a strided vector in another
        # order than a contiguous one.
        wide = line(jumps=[(label, step) for step, label in enumerate("abcdefgh", 1)])
        psi = random_sparse_state(wide, rng, points=30, radius=20)
        c, f = (position_distribution(as_layout(psi, order)) for order in "CF")
        assert list(c) == list(f)
        assert np.array(list(c.values())).tobytes() == np.array(list(f.values())).tobytes()


class TestFortranSubnormalState:
    def test_normalize_takes_a_subnormal_projection_of_any_layout(self, rng):
        # The projected norm is about 1e-310, so it has no finite reciprocal
        # and normalize first rescales the parts by a power of two.
        psi = random_sparse_state(Z2, rng, points=6, radius=2)
        tiny = WalkState.from_blocks(Z2, psi.coords, psi.coins * 1e-310)
        pm = lattice_quotient(1, 0)
        outs = [project_state(pm, 0.3, as_layout(tiny, order), normalize=True) for order in "CF"]
        assert bits(outs[0].coins) == bits(outs[1].coins)
        assert norm(outs[1]) == pytest.approx(1.0, abs=1e-13)

    def test_norm_of_a_fortran_subnormal_state(self, rng):
        psi = random_sparse_state(Z2, rng, points=6, radius=2)
        coins = np.asfortranarray(psi.coins * 1e-310)
        fortran = WalkState.from_blocks(Z2, psi.coords, coins)
        assert norm(fortran) == pytest.approx(1e-310, rel=1e-9)

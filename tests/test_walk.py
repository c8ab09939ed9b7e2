"""Coin/step operators, the two evolution engines, and dense oracles."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qwproj import catalog, walk
from qwproj import (
    CoinAssignment,
    DimensionMismatch,
    InvalidParameter,
    MissingSigma,
    NotUnitary,
    StepPhase,
    WalkSpec,
    add,
    apply_coin,
    apply_step,
    circle,
    cyclic_quotient,
    dense_unitary,
    evolve,
    evolve_recurrence,
    from_json_dict,
    grover_coin,
    hadamard_coin,
    induced_walk,
    lattice_2d,
    line,
    max_abs_difference,
    norm,
    reachable_window,
    scale,
    state_new,
    state_to_vector,
    verify_commutation,
)
from qwproj.spaces import group_rows
from conftest import evolve_both, haar_unitary, random_sparse_state, traced_peak, walk_zoo

Z2 = lattice_2d()
GROVER2D = WalkSpec(Z2, CoinAssignment.homogeneous(grover_coin()))
HADAMARD_LINE = WalkSpec(line(), CoinAssignment.homogeneous(hadamard_coin()))


class TestCoinOperator:
    def test_grover_on_right(self):
        psi = state_new(Z2, [((0, 0), (1, 0, 0, 0))])
        out = apply_coin(GROVER2D, psi)
        np.testing.assert_allclose(out.support[(0, 0)], np.array([-1, 1, 1, 1]) / 2)

    def test_identity_coin_is_noop(self, rng):
        spec = WalkSpec(Z2, CoinAssignment.homogeneous(np.eye(4)))
        psi = random_sparse_state(Z2, rng)
        assert max_abs_difference(apply_coin(spec, psi), psi) == 0.0

    def test_positional_coin_is_local(self):
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        coin = CoinAssignment.positional(
            lambda p: swap if p == (0,) else np.eye(2, dtype=complex), 2
        )
        spec = WalkSpec(line(), coin)
        psi = state_new(line(), [((0,), (1, 0)), ((5,), (1, 0))])
        out = apply_coin(spec, psi)
        np.testing.assert_array_equal(out.support[(0,)], [0, 1])
        np.testing.assert_array_equal(out.support[(5,)], [1, 0])

    def test_positional_coin_names_first_non_unitary_position(self):
        bad = {(3,): np.ones((2, 2)), (5,): np.full((2, 2), np.nan)}
        coin = CoinAssignment.positional(lambda p: bad.get(p, hadamard_coin()), 2)
        spec = WalkSpec(line(), coin)
        psi = state_new(line(), [((i,), (1, 0)) for i in range(-2, 7)])
        with pytest.raises(NotUnitary, match=r"\(3,\)"):
            apply_coin(spec, psi)
        with pytest.raises(NotUnitary, match=r"\(5,\)"):
            apply_coin(spec, state_new(line(), [((5,), (1, 0)), ((6,), (0, 1))]))

    def test_positional_coin_shape_checked(self):
        coin = CoinAssignment.positional(lambda p: np.eye(2 + (p == (1,))), 2)
        psi = state_new(line(), [((0,), (1, 0)), ((1,), (1, 0))])
        with pytest.raises(DimensionMismatch, match=r"\(1,\)"):
            apply_coin(WalkSpec(line(), coin), psi)

    def test_positional_coin_agrees_with_recurrence(self, rng):
        # one seeded Haar coin (QR of a complex Gaussian) per residue mod 3
        coins = []
        for _ in range(3):
            q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            coins.append(q * (np.diag(r) / np.abs(np.diag(r))))
        spec = WalkSpec(line(), CoinAssignment.positional(lambda p: coins[p[0] % 3], 2))
        psi = random_sparse_state(line(), rng, points=4)
        a = evolve(spec, psi, 10)
        b = evolve_recurrence(spec, psi, 10)
        assert set(a.support) == set(b.support)
        assert max_abs_difference(a, b) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            CoinAssignment.homogeneous(np.ones((2, 2)))

    def test_coin_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            WalkSpec(Z2, CoinAssignment.homogeneous(hadamard_coin()))

    def test_step_phase_needs_every_sigma_weight(self):
        with pytest.raises(MissingSigma, match=r"\['L'\]"):
            WalkSpec(line(), CoinAssignment.homogeneous(hadamard_coin()), StepPhase(0.5, {"R": 1}))


def _bits(block: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(block).view(np.uint64)


# The growth of the peak RSS over one 200-step commutation check of the
# planar Grover walk, measured in the child after its imports.
_PEAK_CHILD = """
import sys
from qwproj import catalog, verify_commutation

def peak_kb():
    with open("/proc/self/status") as f:
        return next(int(l.split()[1]) for l in f if l.startswith("VmHWM"))

desc = catalog.scenario("grover2d_to_lazy")
psi0 = desc.distinguished_states["origin"]()
before = peak_kb()
assert verify_commutation(desc.walk, desc.pmap, desc.phi, psi0, 200).passed
print((peak_kb() - before) / 1024)
"""


class TestCoinPanels:
    """A homogeneous coin runs in row panels that BLAS keeps on the calling
    thread, with the bits of one product over the whole block."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_panels_match_one_product_bitwise(self, dim, rng):
        coin = CoinAssignment.homogeneous(haar_unitary(dim, rng))
        panel = (walk._THREADED_MNK - 1) // dim**2
        for n in (panel - 1, panel, panel + 1, 3 * panel + 5):
            for shape in ((n, dim), (3, n, dim)):
                block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                for coins in (block, np.asfortranarray(block)):
                    got = walk._coin_block(coin, None, coins)
                    want = coins @ coin.matrix.T
                    assert got.shape == want.shape
                    assert np.array_equal(_bits(got), _bits(want)), (n, shape)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
    def test_peak_memory_follows_the_state(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", _PEAK_CHILD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 25.0


BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


class TestStepMemory:
    """A step holds the state it makes, the coined block and one merge: the
    previous state's coin block and the merge's image block are freed once
    they are used."""

    def test_commutation_check_peak(self, monkeypatch):
        # plane_verify's call: 10 201 planar sites at the last step, where
        # one state is 0.8 MB; holding the spent blocks took it to 3.7 MB,
        # and the step's and the projection's n*dim index blocks to 2.5 MB
        spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
        bench = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclasses look it up
        spec.loader.exec_module(bench)
        dump = json.loads(bench.initial_state(bench.WORKLOADS["plane_verify"], bench.DEFAULT_SEED))
        desc = catalog.scenario("grover2d_to_lazy")
        psi0 = from_json_dict(Z2, dump)
        peak = traced_peak(lambda: verify_commutation(desc.walk, desc.pmap, 0.0, psi0, 100))
        assert peak < 2.3e6

    def test_merge_peak_follows_its_result(self):
        # the 100-step planar support: 10 000 sites, 40 000 image rows
        t = 99
        x, y = np.meshgrid(np.arange(-t, t + 1), np.arange(-t, t + 1), indexing="ij")
        inside = (abs(x) + abs(y) <= t) & ((x + y - t) % 2 == 0)
        coords = np.column_stack([x[inside], y[inside]]).astype(np.int64)
        assert len(coords) == 10_000
        merge = []
        peak = traced_peak(lambda: merge.append(walk._merge_images(Z2, coords)))
        sites, inverse = merge[0]
        assert peak <= 2.5 * (sites.nbytes + inverse.nbytes)

    def test_step_peak_follows_its_output(self, plane_state):
        # one coin component at a time: no (n, dim) index block beside the output
        coined = apply_coin(GROVER2D, plane_state)
        merge = walk._merge_images(Z2, coined.coords)
        step = []
        peak = traced_peak(lambda: step.append(walk._step_block(coined.coins, merge)))
        assert peak < 1.1 * step[0][1].nbytes


class TestStepOperator:
    def test_single_displacement(self):
        psi = state_new(Z2, [((0, 0), (1, 0, 0, 0))])
        out = apply_step(GROVER2D, psi)
        np.testing.assert_array_equal(out.support[(1, 0)], [1, 0, 0, 0])

    def test_lazy_direction_stays(self):
        from qwproj import lattice_quotient

        lazy = induced_walk(GROVER2D, lattice_quotient(1, 0))
        psi = state_new(lazy.space, [((0,), (0, 0, 1, 0))])
        out = apply_step(lazy, psi)
        np.testing.assert_array_equal(out.support[(0,)], [0, 0, 1, 0])

    def test_circle_seam_phase(self):
        phi = 0.9
        spec = WalkSpec(
            circle(4),
            CoinAssignment.homogeneous(np.eye(2)),
            StepPhase(phi, {"R": 1, "L": -1}),
        )
        psi = state_new(circle(4), [((3,), (1, 0))])
        out = apply_step(spec, psi)
        assert out.support[(0,)][0] == pytest.approx(np.exp(1j * phi))
        # cross-check against the dense matrix of the same walk
        u, _ = dense_unitary(spec)
        np.testing.assert_allclose(
            state_to_vector(out), u @ state_to_vector(psi), atol=1e-15
        )

    def test_norm_preserved(self, rng):
        psi = random_sparse_state(Z2, rng)
        out = apply_step(GROVER2D, psi)
        assert norm(out) == pytest.approx(norm(psi), abs=1e-13)


class TestEvolve:
    def test_zero_steps(self, rng):
        psi = random_sparse_state(Z2, rng)
        assert evolve(GROVER2D, psi, 0) is psi

    def test_negative_steps_rejected(self, rng):
        with pytest.raises(InvalidParameter):
            evolve(GROVER2D, random_sparse_state(Z2, rng), -1)

    @pytest.mark.parametrize("engine", [evolve, evolve_recurrence])
    @pytest.mark.parametrize("n", [2.0, 1.5, True, "3", None])
    def test_non_integral_steps_rejected(self, engine, n):
        psi = state_new(line(), [((0,), (1, 0))])
        with pytest.raises(InvalidParameter):
            engine(HADAMARD_LINE, psi, n)

    def test_numpy_integer_steps_accepted(self):
        psi = state_new(line(), [((0,), (1, 0))])
        assert max_abs_difference(
            evolve(HADAMARD_LINE, psi, np.int64(3)), evolve(HADAMARD_LINE, psi, 3)
        ) == 0.0

    def test_hadamard_single_step(self):
        psi = state_new(line(), [((0,), (1, 0))])
        out = evolve(HADAMARD_LINE, psi, 1)
        inv = 1 / math.sqrt(2)
        np.testing.assert_allclose(out.support[(1,)], [inv, 0], atol=1e-15)
        np.testing.assert_allclose(out.support[(-1,)], [0, inv], atol=1e-15)

    def test_grover_2d_matches_recurrence(self):
        psi = state_new(Z2, [((0, 0), np.array([1, 1, 1, 1]) / 2)])
        a = evolve(GROVER2D, psi, 10)
        b = evolve_recurrence(GROVER2D, psi, 10)
        assert max_abs_difference(a, b) < 1e-12

    def test_linearity(self, rng):
        a = random_sparse_state(Z2, rng)
        b = random_sparse_state(Z2, rng)
        za, zb = 0.8 - 0.1j, -0.3 + 0.4j
        combined = evolve(GROVER2D, add(scale(za, a), scale(zb, b)), 5)
        separate = add(
            scale(za, evolve(GROVER2D, a, 5)), scale(zb, evolve(GROVER2D, b, 5))
        )
        assert max_abs_difference(combined, separate) < 1e-12

    def test_support_locality(self, rng):
        psi = random_sparse_state(Z2, rng, points=3)
        out = evolve(GROVER2D, psi, 6)
        allowed = reachable_window(Z2, psi.support, 6)
        # a site outside the window would add a row to their union
        assert np.array_equal(group_rows(np.concatenate([allowed, out.coords]))[0], allowed)

    def test_unitarity_over_many_steps(self):
        psi = state_new(Z2, [((0, 0), np.array([1, 1j, -1, -1j]) / 2)])
        out = evolve(GROVER2D, psi, 40)
        assert abs(norm(out) - 1.0) < 1e-12 * 41


class TestCoordinateRange:
    """Past int64 the packed engine steps on exact Python integers, in
    agreement with the recurrence."""

    def test_step_past_int64_max(self):
        top = 2**63 - 1
        psi = state_new(line(), [((top,), (1, 0))])
        assert psi.coords.dtype == np.int64
        out = evolve_both(HADAMARD_LINE, psi, 1)
        assert out.coords.dtype == object
        assert out.coords.tolist() == [[top - 1], [top + 1]]

    def test_step_past_int64_min(self):
        bottom = -(2**63) + 1
        psi = state_new(line(), [((bottom,), (0, 1))])
        out = evolve_both(HADAMARD_LINE, psi, 1)
        assert out.coords.tolist() == [[bottom - 1], [bottom + 1]]

    def test_position_beyond_int64(self):
        far = 2**64
        psi = state_new(line(), [((far,), (1, 0))])
        assert psi.coords.dtype == object and psi.coords.tolist() == [[far]]
        out = evolve_both(HADAMARD_LINE, psi, 2)
        assert set(out.support) == {(far + 2,), (far,), (far - 2,)}

    def test_planar_edge_steps_exactly(self):
        edge = (5, 2**63 - 1)
        psi = state_new(Z2, [((0, 0), (1, 0, 0, 0)), (edge, (0, 0, 1, 0))])
        out = evolve_both(GROVER2D, psi, 3)
        # The sites near the origin stay where int64 would put them.
        assert {(x, y) for x, y in out.support if abs(y) < 10} == set(
            evolve(GROVER2D, state_new(Z2, [((0, 0), (1, 0, 0, 0))]), 3).support
        )
        assert max(y for _, y in out.support) == 2**63 + 2

    def test_large_but_safe_positions_step(self):
        far = 2**62
        psi = state_new(Z2, [((far, -far), (1, 1j, -1, -1j))])
        a = evolve(GROVER2D, psi, 3)
        b = evolve_recurrence(GROVER2D, psi, 3)
        assert set(a.support) == set(b.support)
        assert max_abs_difference(a, b) < 1e-15


class TestRecurrenceEngine:
    def test_hand_applied_single_step(self):
        # one gather step from a single point, written out longhand
        gamma = np.array([0.3 + 0.1j, -0.5, 0.2j, 0.7])
        psi = state_new(Z2, [((0, 0), gamma)])
        coined = grover_coin() @ gamma
        out = evolve_recurrence(GROVER2D, psi, 1)
        np.testing.assert_allclose(out.support[(1, 0)], [coined[0], 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(out.support[(-1, 0)], [0, coined[1], 0, 0], atol=1e-15)
        np.testing.assert_allclose(out.support[(0, 1)], [0, 0, coined[2], 0], atol=1e-15)
        np.testing.assert_allclose(out.support[(0, -1)], [0, 0, 0, coined[3]], atol=1e-15)

    def test_empty_state(self):
        empty = state_new(Z2, [])
        assert evolve_recurrence(GROVER2D, empty, 3).support == {}

    def test_engines_agree_randomized(self, rng):
        for spec in walk_zoo():
            for _ in range(4):
                psi = random_sparse_state(spec.space, rng, points=3)
                n = int(rng.integers(0, 9))
                a = evolve(spec, psi, n)
                b = evolve_recurrence(spec, psi, n)
                assert max_abs_difference(a, b) < 1e-12

    def test_engines_agree_with_phases(self, rng):
        pm = cyclic_quotient(4)
        spec = WalkSpec(
            pm.target,
            CoinAssignment.homogeneous(hadamard_coin()),
            StepPhase(math.pi / 3, dict(pm.sigma_c)),
        )
        psi = random_sparse_state(spec.space, rng, points=2)
        a = evolve(spec, psi, 12)
        b = evolve_recurrence(spec, psi, 12)
        assert max_abs_difference(a, b) < 1e-12


class TestPhaseConventions:
    def test_absorbed_coin_matches_step_phases(self, rng):
        pm = cyclic_quotient(5)
        spec = WalkSpec(
            pm.target,
            CoinAssignment.homogeneous(hadamard_coin()),
            StepPhase(0.7, dict(pm.sigma_c)),
        )
        # the phase matrix D commutes past the plain step as the phased step applies it
        folded = WalkSpec(
            spec.space, CoinAssignment.homogeneous(np.diag(spec.step_phases()) @ hadamard_coin())
        )
        psi = random_sparse_state(spec.space, rng, points=3)
        a = evolve(spec, psi, 9)
        b = evolve(folded, psi, 9)
        assert max_abs_difference(a, b) < 1e-13


class TestDenseOracle:
    def test_matrix_is_unitary(self):
        spec = WalkSpec(circle(4), CoinAssignment.homogeneous(hadamard_coin()))
        u, pts = dense_unitary(spec)
        assert len(pts) == 4 and u.shape == (8, 8)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-14)

    def test_sparse_evolution_matches_dense(self, rng):
        spec = WalkSpec(circle(4), CoinAssignment.homogeneous(hadamard_coin()))
        u, _ = dense_unitary(spec)
        psi = random_sparse_state(spec.space, rng, points=2)
        v = state_to_vector(psi)
        for n in (1, 5, 17):
            sparse = evolve(spec, psi, n)
            dense = np.linalg.matrix_power(u, n) @ v
            assert np.abs(state_to_vector(sparse) - dense).max() < 1e-12

    def test_infinite_space_rejected(self):
        with pytest.raises(InvalidParameter):
            dense_unitary(GROVER2D)


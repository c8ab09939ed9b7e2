"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import math
import time

import numpy as np
import pytest

from qwproj import (
    CoinAssignment,
    NullProjection,
    ProjectionMap,
    WalkSpec,
    check_rho_consistency,
    cyclic_quotient,
    dense_unitary,
    diff_norm,
    evolve,
    evolve_recurrence,
    grover_coin,
    hadamard_coin,
    induced_walk,
    inner,
    lattice_2d,
    lattice_quotient,
    line,
    llattice,
    llattice_quotient,
    max_abs_difference,
    norm,
    phase_projection_family,
    project_state,
    projected_trapped_state,
    reachable_window,
    reconstruct,
    reconstruct_support,
    scale,
    scenario,
    state_new,
    state_to_vector,
    trapped_state,
    verify_commutation,
    SCENARIO_NAMES,
)
from conftest import random_sparse_state


def report(criterion, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {flag} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_commutation_suite():
    """Five scenarios, three initial states each, 30 steps, residual < 1e-10."""
    t0 = time.perf_counter()
    worst = 0.0
    for name in SCENARIO_NAMES:
        phi = math.pi / 3 if name == "line_to_circle" else 0.0
        desc = scenario(name, phi=phi)
        for state_name in ("origin", "offset", "pair"):
            psi = desc.distinguished_states[state_name]()
            rep = verify_commutation(desc.walk, desc.pmap, desc.phi, psi, 30, tol=1e-10)
            worst = max(worst, rep.max_residual)
            assert rep.passed, (name, state_name, rep.max_residual)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 commutation suite",
        worst < 1e-10 and elapsed < 10.0,
        f"max residual {worst:.3e}, {elapsed:.2f}s for 15 pairings",
    )


def test_criterion_2_trapped_states():
    """Confinement over 50 steps, eigenrelations, and the printed projections."""
    walk = scenario("grover2d_to_lazy").walk
    worst_leak = 0.0
    worst_eigen = 0.0
    worst_printed = 0.0
    worst_induced = 0.0
    for sign in (+1, -1):
        psi = trapped_state(0, 0, sign)
        sites = set(psi.support)
        evolved = evolve(walk, psi, 50)
        leak = math.sqrt(
            sum(
                float(np.vdot(v, v).real)
                for pos, v in evolved.support.items()
                if pos not in sites
            )
        )
        worst_leak = max(worst_leak, leak)
        one = evolve(walk, psi, 1)
        lam = inner(psi, one)
        assert abs(abs(lam) - 1.0) < 1e-12
        worst_eigen = max(worst_eigen, diff_norm(one, scale(lam, psi)))
        for kind, kl in (("lazy", (1, 0)), ("double_line", (1, 1))):
            pm = lattice_quotient(*kl)
            closed_form = projected_trapped_state(kind, 0, 0, sign)
            worst_printed = max(
                worst_printed,
                max_abs_difference(project_state(pm, 0.0, psi), closed_form),
            )
            spec = induced_walk(walk, pm)
            advanced = evolve(spec, closed_form, 1)
            worst_induced = max(
                worst_induced, diff_norm(advanced, scale(lam, closed_form))
            )
    ok = (
        worst_leak < 1e-12
        and worst_eigen < 1e-12
        and worst_printed < 1e-14
        and worst_induced < 1e-12
    )
    report(
        "criterion 2 trapped states",
        ok,
        f"leak {worst_leak:.2e}, eigen {worst_eigen:.2e}, "
        f"printed forms {worst_printed:.2e}, induced eigen {worst_induced:.2e}",
    )


def _seam_twisted_circle(n, phi):
    """Dense one-step matrix of a circle walk whose seam edge carries phase n*phi."""
    dim = 2 * n
    coin = np.kron(np.eye(n), hadamard_coin())
    shift = np.zeros((dim, dim), dtype=complex)
    for m in range(n):
        fwd = 1.0 if m < n - 1 else np.exp(1j * n * phi)
        back = 1.0 if m > 0 else np.exp(-1j * n * phi)
        shift[((m + 1) % n) * 2 + 0, m * 2 + 0] = fwd
        shift[((m - 1) % n) * 2 + 1, m * 2 + 1] = back
    return shift @ coin


def test_criterion_3_twisted_boundary():
    """Projection through x mod 4 matches hand-built twisted circle walks."""
    n_circle = 4
    parent = WalkSpec(line(), CoinAssignment.homogeneous(hadamard_coin()))
    pmap = cyclic_quotient(n_circle)
    psi0 = state_new(line(), [((0,), np.array([1, 1j]) / math.sqrt(2))])
    worst = 0.0
    for phi in (0.0, math.pi / 3, 1.0):
        spec = induced_walk(parent, pmap, phi)
        dense_u, _ = dense_unitary(spec)
        # gauge that turns the per-hop phases into a single seam twist of 4*phi
        gauge = np.kron(np.diag([np.exp(1j * phi * m) for m in range(n_circle)]), np.eye(2))
        seam_u = _seam_twisted_circle(n_circle, phi)
        np.testing.assert_allclose(dense_u, gauge @ seam_u @ gauge.conj().T, atol=1e-13)
        upper = psi0
        projected_vec = state_to_vector(project_state(pmap, phi, psi0))
        seam_vec = gauge.conj().T @ projected_vec
        for _ in range(40):
            upper = evolve(parent, upper, 1)
            projected_vec = dense_u @ projected_vec
            seam_vec = seam_u @ seam_vec
            reference = state_to_vector(project_state(pmap, phi, upper))
            worst = max(worst, float(np.max(np.abs(reference - projected_vec))))
            worst = max(worst, float(np.max(np.abs(reference - gauge @ seam_vec))))
    report(
        "criterion 3 twisted boundary",
        worst < 1e-12,
        f"max elementwise deviation {worst:.3e} over 40 steps x 3 phases",
    )


def test_criterion_4_reconstruction_round_trip():
    """Round trips at M = 2n+1 for three quotients; aliasing control at M = 2n-1."""
    t0 = time.perf_counter()
    n = 10
    samples = 2 * n + 1
    parent = WalkSpec(lattice_2d(), CoinAssignment.homogeneous(grover_coin()))
    psi0 = state_new(lattice_2d(), [((0, 0), np.array([1, 1j, -1, -1j]) / 2)])
    reference = evolve(parent, psi0, n)
    candidates = reachable_window(lattice_2d(), [(0, 0)], n)
    worst = 0.0
    for k, l in ((1, 0), (2, 1), (3, 5)):
        pmap = lattice_quotient(k, l)
        family = phase_projection_family(parent, pmap, psi0, n, samples)
        recovered = reconstruct_support(family, pmap, candidates)
        err = max_abs_difference(recovered, reference)
        worst = max(worst, err)
        assert err < 1e-10, (k, l, err)
    # negative control: for (1, 0) the sigma span within a fiber is exactly
    # 2n+1, so a grid of 2n-1 aliases the column ends onto each other
    pmap = lattice_quotient(1, 0)
    coarse = 2 * n - 1
    family = phase_projection_family(parent, pmap, psi0, n, coarse)
    window = (-n, n - 2)  # the widest window a grid of 2n-1 can address
    aliased = reconstruct(family, pmap, window)
    control_err = max_abs_difference(aliased, reference)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 4 reconstruction round trip",
        worst < 1e-10 and control_err > 1e-6 and elapsed < 30.0,
        f"max round-trip error {worst:.3e}, aliasing control error {control_err:.3e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_5_engine_equivalence():
    """50 randomized sparse states across the four space families, n <= 20."""
    rng = np.random.default_rng(7)
    specs = [
        WalkSpec(lattice_2d(), CoinAssignment.homogeneous(grover_coin())),
        WalkSpec(line(), CoinAssignment.homogeneous(hadamard_coin())),
        WalkSpec(cyclic_quotient(4).target, CoinAssignment.homogeneous(hadamard_coin())),
        WalkSpec(llattice(), CoinAssignment.homogeneous(hadamard_coin())),
    ]
    worst = 0.0
    for trial in range(50):
        spec = specs[trial % len(specs)]
        if trial == 0:
            n = 20  # pin one full-length planar trial
        else:
            n = int(rng.integers(0, 21))
        psi = random_sparse_state(spec.space, rng, points=3)
        delta = max_abs_difference(
            evolve(spec, psi, n), evolve_recurrence(spec, psi, n)
        )
        worst = max(worst, delta)
        assert delta < 1e-12, (spec.space.name, n, delta)
    report(
        "criterion 5 engine equivalence",
        worst < 1e-12,
        f"max elementwise gap {worst:.3e} over 50 trials",
    )


def test_criterion_6_consistency_checker():
    """All three quotients pass on >= 10^4 position pairs; x^2 fails with a witness."""
    square = [(i, j) for i in range(-6, 7) for j in range(-6, 7)]
    segment = [(i,) for i in range(-75, 76)]
    checks = [
        (lattice_quotient(2, 1), square),
        (cyclic_quotient(4), segment),
        (llattice_quotient(), square),
    ]
    total_pairs = []
    for pmap, window in checks:
        rep = check_rho_consistency(pmap, window)
        assert rep.passed and rep.pairs >= 10_000, (pmap.name, rep.pairs)
        total_pairs.append(rep.pairs)
    bad = ProjectionMap(
        source=lattice_2d(), target=line(), rho_array=lambda c: c[:, :1] ** 2, name="x^2"
    )
    rep = check_rho_consistency(bad, [(i, j) for i in range(-3, 4) for j in range(-3, 4)])
    assert not rep.passed and rep.counterexample is not None
    x, y, label, _ = rep.counterexample
    disp = bad.source.displacement(label)
    before = bad.rho_array(np.array([x, y]))
    after = bad.rho_array(disp.apply_array(np.array([x, y])))
    genuine = (before[0] == before[1]).all() != (after[0] == after[1]).all()
    report(
        "criterion 6 consistency checker",
        genuine,
        f"pairs per window {total_pairs}, witness {rep.counterexample}",
    )


def test_criterion_7_null_projection_pathology():
    """Antisymmetric fibers cancel deterministically; the CLI exits with 3."""
    gamma = np.array([1, 1j, -1, -1j]) / 2
    psi = state_new(lattice_2d(), [((0, 0), gamma), ((0, 3), -gamma)])
    pmap = lattice_quotient(1, 0)
    messages = []
    for _ in range(3):
        with pytest.raises(NullProjection) as exc_info:
            project_state(pmap, 0.0, psi)
        messages.append(str(exc_info.value))
    deterministic = len(set(messages)) == 1
    from test_cli import ANTISYMMETRIC_INIT
    from qwproj.cli import main

    code = main(
        ["verify", "--scenario", "grover2d_to_lazy", "--steps", "5",
         "--init", ANTISYMMETRIC_INIT]
    )
    report(
        "criterion 7 null-projection pathology",
        deterministic and code == 3,
        f"3 identical raises, CLI exit code {code}",
    )


def test_criterion_8_unitarity():
    """Every catalog walk (parent and induced) conserves norm over 100 steps."""
    n = 100
    tol = 1e-12 * (n + 1)
    drifts = {}
    seen_parents = set()
    for name in SCENARIO_NAMES:
        phi = 0.7 if name == "line_to_circle" else 0.0
        desc = scenario(name, phi=phi)
        psi = desc.distinguished_states["origin"]()
        parent_key = (desc.walk.space.name, desc.walk.coin.matrix.tobytes())
        if parent_key not in seen_parents:
            seen_parents.add(parent_key)
            drift = abs(norm(evolve(desc.walk, psi, n)) - norm(psi))
            drifts[f"{name}:parent"] = drift
        projected = project_state(desc.pmap, desc.phi, psi, normalize=True)
        spec = induced_walk(desc.walk, desc.pmap, desc.phi)
        drift = abs(norm(evolve(spec, projected, n)) - 1.0)
        drifts[f"{name}:induced"] = drift
    worst = max(drifts.values())
    report(
        "criterion 8 unitarity",
        worst < tol,
        f"max norm drift {worst:.3e} over {len(drifts)} walks, tol {tol:.2e}",
    )

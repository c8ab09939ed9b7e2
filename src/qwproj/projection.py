"""Projection operators, induced walks, and intertwining verification.

Projecting a state through a quotient map sums the coin vectors over each
fiber of rho, optionally weighting the term at source position x by
exp(i*phi*sigma(x)).  When the coin assignment is constant on fibers, the
walk descends to the quotient: the induced walk uses the induced
displacement family, the same coin values, and, for phi != 0, step phases
exp(i*phi*sigma_c) per direction.  Projection and evolution then commute,
which :func:`verify_commutation` checks numerically step by step.

Projection is linear but not norm-preserving: fibers can interfere
constructively or destructively.  A state whose fibers cancel exactly
projects to the zero vector, which is not a quantum walk state; this is
reported as :class:`~qwproj.errors.NullProjection` whenever the projected
norm is at most ``NULL_TOL`` times the input norm.  The operator is defined
here only for finitely supported states, where the fiber sums are always
finite.  (On states with infinite support inside one fiber the sum is only
conditionally convergent for square-summable but not absolutely summable
amplitude sequences, so no such states are representable.)
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    InhomogeneousCoin,
    InvalidParameter,
    MissingSigma,
    NullProjection,
    SpaceMismatch,
)
from .hilbert import WalkState, diff_norm, norm, scale
from .spaces import Position, ProjectionMap, group_rows, reachable_window
from .walk import CoinAssignment, StepPhase, WalkSpec, _step_count, evolve

logger = logging.getLogger(__name__)

NULL_TOL = 1e-12
HOMOGENEITY_TOL = 1e-12

__all__ = [
    "NULL_TOL",
    "HOMOGENEITY_TOL",
    "HomogeneityReport",
    "CommutationReport",
    "project_state",
    "check_coin_homogeneity",
    "induced_walk",
    "verify_commutation",
]


@dataclass(frozen=True)
class HomogeneityReport:
    """Whether the coin is constant on the rho-classes of a window."""

    passed: bool
    classes: int
    witness: tuple[Position, Position, float] | None = None  # (x, y, max deviation)


@dataclass(frozen=True)
class CommutationReport:
    """Residuals of project-then-evolve against evolve-then-project."""

    steps: int
    residuals: tuple[float, ...]
    max_residual: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "steps": self.steps,
            "residuals": list(self.residuals),
            "max_residual": self.max_residual,
            "passed": self.passed,
        }


def project_state(
    pmap: ProjectionMap,
    phi: float,
    state: WalkState,
    normalize: bool = False,
) -> WalkState:
    """Sum the state's coin vectors over the fibers of rho.

    For phi != 0 each term is weighted by exp(i*phi*sigma(x)), requiring the
    map to carry sigma (MissingSigma otherwise).  The result lives on the
    map's target space and is returned unnormalized unless ``normalize`` is
    set.  Raises NullProjection when the projected norm is at most
    ``NULL_TOL`` times the norm of the input, the regime of exact
    cancellation (an all-zero or empty input always raises).

    The map acts on the state's coordinate block through
    :meth:`~qwproj.spaces.ProjectionMap.rho_block` and ``sigma_block``.
    """
    if state.space.signature != pmap.source.signature:
        raise SpaceMismatch(
            f"state on {state.space.name!r} fed to a projection from {pmap.source.name!r}"
        )
    if pmap.target.coin_dimension != state.coin_dimension:
        raise SpaceMismatch(
            "target space does not preserve the coin dimension; "
            "was this projection map built by a quotient constructor?"
        )
    if phi != 0.0 and pmap.sigma is None:
        raise MissingSigma(f"projection {pmap.name!r} has no sigma homomorphism")
    targets = pmap.rho_block(state.coords)
    terms = state.coins
    if phi != 0.0:
        terms = terms * np.exp(1j * phi * pmap.sigma_block(state.coords))[:, None]
    sites, inverse = group_rows(targets)
    dim = state.coin_dimension
    # One bin per (site, component) slot.  bincount sums each bin in input
    # order, as np.add.at would, so the sums are bitwise the same; writing
    # them through .real/.imag copies them unchanged, where re + 1j*im
    # would add a signed zero to every part.
    slots = (inverse[:, None] * dim + np.arange(dim)).ravel()
    out = np.empty((len(sites), dim), dtype=np.complex128)
    out.real = np.bincount(slots, terms.real.ravel(), out.size).reshape(out.shape)
    out.imag = np.bincount(slots, terms.imag.ravel(), out.size).reshape(out.shape)
    projected = WalkState.from_blocks(pmap.target, sites, out)
    total = norm(projected)
    source_norm = norm(state)
    if total <= NULL_TOL * source_norm:
        raise NullProjection(
            f"projection through {pmap.name!r} cancelled to norm {total:.3e} "
            f"(input norm {source_norm:.3e})"
        )
    if normalize:
        projected = scale(1.0 / total, projected)
    return projected


def check_coin_homogeneity(
    walk: WalkSpec, pmap: ProjectionMap, window: Iterable[Position]
) -> HomogeneityReport:
    """Check that the coin matrix is constant on every rho-class of the window.

    Positional coins are compared entrywise against the first representative
    seen in each class, with tolerance ``HOMOGENEITY_TOL``; the first
    violating pair is reported together with its largest entry deviation.
    """
    if walk.coin.is_homogeneous:
        classes = len({pmap.rho(tuple(p)) for p in window})
        return HomogeneityReport(True, classes)
    reps: dict[Position, tuple[Position, np.ndarray]] = {}
    for pos in sorted(set(tuple(p) for p in window)):
        cls = pmap.rho(pos)
        mat = walk.coin.at(pos)
        if cls not in reps:
            reps[cls] = (pos, mat)
            continue
        rep_pos, rep_mat = reps[cls]
        dev = float(np.max(np.abs(mat - rep_mat)))
        if dev >= HOMOGENEITY_TOL:
            return HomogeneityReport(False, len(reps), (rep_pos, pos, dev))
    return HomogeneityReport(True, len(reps))


def induced_walk(
    walk: WalkSpec,
    pmap: ProjectionMap,
    phi: float = 0.0,
    window: Iterable[Position] | None = None,
) -> WalkSpec:
    """The walk induced on the quotient space.

    The induced displacements are those carried by the map's target space;
    the coin at a target position is the source coin at any fiber
    representative.  For phi != 0 the step picks up exp(i*phi*sigma_c)
    phases per direction.

    A homogeneous coin descends unconditionally.  A positional coin needs a
    ``window`` of source positions over which fiber-constancy is checked
    (InhomogeneousCoin on failure); pass the causally relevant region, e.g.
    :func:`~qwproj.spaces.reachable_window` of the initial support.
    """
    if walk.space.signature != pmap.source.signature:
        raise SpaceMismatch(
            f"walk on {walk.space.name!r} fed to a projection from {pmap.source.name!r}"
        )
    if walk.coin.is_homogeneous:
        coin = walk.coin
    else:
        if window is None:
            raise InvalidParameter(
                "a positional coin needs a window to verify fiber-constancy"
            )
        report = check_coin_homogeneity(walk, pmap, window)
        if not report.passed:
            x, y, dev = report.witness
            raise InhomogeneousCoin(
                f"coin differs within the class of rho({x}) = rho({y}) "
                f"(max entry deviation {dev:.3e})"
            )
        if pmap.section is None:
            raise InvalidParameter(
                f"projection {pmap.name!r} has no section to place the fiber coins"
            )
        source_fn = walk.coin.matrix_fn  # checked where the induced coin is used
        section = pmap.section
        coin = CoinAssignment.positional(
            lambda q: source_fn(section(q)), walk.coin.dimension
        )
    phase = None
    if phi != 0.0:
        if pmap.sigma_c is None:
            raise MissingSigma(f"projection {pmap.name!r} has no sigma weights")
        phase = StepPhase(phi, dict(pmap.sigma_c))
    return WalkSpec(pmap.target, coin, phase)


def verify_commutation(
    walk: WalkSpec,
    pmap: ProjectionMap,
    phi: float,
    psi0: WalkState,
    n: int,
    tol: float = 1e-10,
) -> CommutationReport:
    """Compare projected evolution with evolved projection over n steps.

    For each t in 1..n the residual is the norm of

        project(evolve(walk, psi0, t)) - evolve(induced, project(psi0), t)

    computed incrementally (both branches advance one step per iteration).
    The check passes when the largest residual is below ``tol`` times the
    norm of psi0, so scaling psi0 does not change the verdict.
    A NullProjection on the initial state propagates to the caller; later
    projections cannot vanish because the induced evolution is unitary.
    """
    n = _step_count(n)
    projected = project_state(pmap, phi, psi0)
    window = None
    if not walk.coin.is_homogeneous:
        window = reachable_window(walk.space, psi0.support, n)
    induced = induced_walk(walk, pmap, phi, window=window)
    residuals = []
    upper = psi0
    lower = projected
    for _ in range(n):
        upper = evolve(walk, upper, 1)
        lower = evolve(induced, lower, 1)
        residuals.append(diff_norm(project_state(pmap, phi, upper), lower))
    max_residual = max(residuals, default=0.0)
    passed = max_residual < tol * norm(psi0)
    logger.debug(
        "commutation check %s over %d steps: max residual %.3e (tol %.1e)",
        pmap.name,
        n,
        max_residual,
        tol,
    )
    return CommutationReport(n, tuple(residuals), max_residual, passed)

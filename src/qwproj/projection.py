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

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InhomogeneousCoin,
    InvalidParameter,
    MissingSigma,
    NullProjection,
    SpaceMismatch,
)
from .hilbert import WalkState, _norm, norm, scale
from .spaces import (
    COORD_LIMIT,
    Position,
    ProjectionMap,
    _Record,
    _count,
    _debug,
    _finite,
    _position_block,
    check_same_space,
    group_rows,
    reachable_window,
)
from .walk import (
    CoinAssignment,
    StepPhase,
    WalkSpec,
    _phase_factors,
    _walk_blocks,
    _walk_states,
)

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


class HomogeneityReport(_Record):
    """Whether the coin is constant on the rho-classes of a window."""

    passed: bool
    classes: int
    witness: tuple[Position, Position, float] | None = None  # (x, y, max deviation)


class CommutationReport(_Record):
    """Residuals of project-then-evolve against evolve-then-project;
    ``passed`` is ``max_residual < tol * psi0_norm``."""

    steps: int
    residuals: tuple[float, ...]
    max_residual: float
    passed: bool
    psi0_norm: float

    def to_json_dict(self) -> dict:
        """The fields by name; json writes the residuals as a list."""
        return dict(vars(self))


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

    The map acts on the state's coordinate block through its ``rho_array``
    and ``sigma_array``.  phi must be finite (InvalidParameter otherwise).
    """
    _finite(phi, "phi")
    sites, out, _ = _project_phases(pmap, (phi,), state)
    projected = WalkState.from_blocks(pmap.target, sites, out[0])
    if normalize:
        size = norm(projected)
        if 1.0 / size == math.inf:
            # A subnormal norm has no finite reciprocal: bring it into
            # [0.5, 1) first by a power of two, which moves no bit.
            parts = np.ldexp(projected.coins.view(np.float64), -math.frexp(size)[1])
            projected = projected.with_coins(parts.view(np.complex128))
            size = norm(projected)
        projected = scale(1.0 / size, projected)
    return projected


def _project_phases(
    pmap: ProjectionMap, phis: Sequence[float], state: WalkState,
    merge: np.ndarray | None = None, table: tuple[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`project_state` at each of M phases, grouping the fibers and
    taking sigma once: the one routine that projects a state.

    ``merge`` is None or target sites grouped with the rho-images, and
    ``table`` the weights of a one-phase call (see :func:`_phase_table`).
    Returns the target sites, the ``(M, sites, dim)`` fiber sums on them
    (zero at a merged site no fiber reaches) and the rows the merged sites
    landed on.  NullProjection is raised for the first phase, in order,
    whose projection's norm is at most ``NULL_TOL`` times the state's.
    Before that test, a state or a projection whose norm is beyond the float
    range is refused with InvalidParameter for the first phase, naming the
    first fiber whose sum overflowed: the sums, and a cancellation test on
    them, no longer mean anything there.
    """
    check_same_space(state.space, pmap.source, "state fed to the projection")
    if pmap.target.coin_dimension != state.coin_dimension:
        raise SpaceMismatch(
            "target space does not preserve the coin dimension; "
            "was this projection map built by a quotient constructor?"
        )
    phased = any(phi != 0.0 for phi in phis)
    if phased and pmap.sigma_array is None:
        raise MissingSigma(f"projection {pmap.name!r} has no sigma homomorphism")
    n = len(state.coins)
    targets = pmap.rho_array(state.coords)
    sites, inverse = group_rows(targets if merge is None else np.concatenate([targets, merge]))
    sigma = pmap.sigma_array(state.coords) if phased else None
    out = np.empty((len(phis), len(sites), pmap.target.coin_dimension), dtype=np.complex128)
    source_norm = norm(state)
    for j, phi in enumerate(phis):
        out[j] = _fiber_sums(phi, state.coins, sigma, inverse[:n], len(sites), table)
        total = _norm(out[j])
        if not (total < math.inf and source_norm < math.inf):  # NaN too
            raise InvalidParameter(
                f"projection through {pmap.name!r} at phi = {phi!r} is beyond the float "
                f"range: norm {total:.3e} (input norm {source_norm:.3e})"
                + _overflowed_fiber(sites, out[j])
            )
        if total <= NULL_TOL * source_norm:
            raise NullProjection(
                f"projection through {pmap.name!r} cancelled to norm {total:.3e} "
                f"(input norm {source_norm:.3e})"
                + _cancelled_fibers(state.coins, inverse[:n], sites, out[j])
            )
    return sites, out, inverse[n:]


def _overflowed_fiber(sites: np.ndarray, sums: np.ndarray) -> str:
    """The first fiber whose sum, a row of ``sums``, has a norm beyond the
    float range, for an overflow message, or "" when none has."""
    with np.errstate(over="ignore"):
        rows = np.flatnonzero(~(np.hypot.reduce(np.abs(sums), axis=1) < math.inf))
    return f"; the sum over fiber {tuple(sites[rows[0]].tolist())} overflows" if rows.size else ""


def _cancelled_fibers(
    coins: np.ndarray, inverse: np.ndarray, sites: np.ndarray, sums: np.ndarray
) -> str:
    """The up to three fibers that cancelled most, for a NullProjection
    message, or "" when none lost any norm.

    A fiber is ranked by how far the norm of its sum, a row of ``sums``,
    falls short of the summed norms of its terms, the coin vectors of its
    sites; a phase weight has modulus 1, so it leaves a term's norm as it is.
    """
    terms = np.bincount(inverse, np.hypot.reduce(np.abs(coins), axis=1), len(sites))
    kept = np.hypot.reduce(np.abs(sums), axis=1)
    lost = terms - kept
    ranked = [i for i in np.argsort(-lost, kind="stable")[:3].tolist() if lost[i] > 0]
    if not ranked:
        return ""
    named = ", ".join(
        f"{tuple(sites[i].tolist())} {terms[i]:.3e} -> {kept[i]:.3e}" for i in ranked
    )
    return f"; the fibers that cancelled most, sum of term norms -> norm of sum: {named}"


def _fiber_sums(
    phi: float, coins: np.ndarray, sigma: np.ndarray | None, inverse: np.ndarray, size: int,
    table: tuple[int, np.ndarray] | None,
) -> np.ndarray:
    """The ``(size, dim)`` fiber sums of an ``(n, dim)`` coin block at phase phi.

    ``inverse`` gives, for every site, the row of its rho-image among
    ``size`` target rows; a row that no site maps to sums to zero.  At
    phi != 0 the term at a site is weighted by exp(i*phi*sigma): read off
    ``table`` (see :func:`_phase_table`) when the sites' int64 ``sigma``
    block lies inside it, else made by the walk module's one phase builder,
    which refuses a phi*sigma beyond the float range; at phi = 0 the term
    is taken as it is.
    """
    if phi == 0.0:
        weights = None
    elif table is not None and sigma.dtype != object and (
        table[0] <= sigma.min() and sigma.max() < table[0] + len(table[1])
    ):
        weights = table[1][sigma - table[0]]
    else:
        weights = _phase_factors(phi, sigma)
    out = np.empty((size, coins.shape[-1]), dtype=np.complex128)
    parts = out.view(np.float64)
    # One coin component at a time (a contiguous column of a component-major
    # block), its real and imaginary parts binned by row.  bincount sums each
    # bin in input order, as np.add.at would, so the sums are bitwise the
    # same; writing the parts into the float view keeps them unchanged,
    # where re + 1j*im would add a signed zero to each.
    for c in range(coins.shape[-1]):
        column = coins[:, c] if weights is None else coins[:, c] * weights
        parts[:, 2 * c] = np.bincount(inverse, column.real, size)
        parts[:, 2 * c + 1] = np.bincount(inverse, column.imag, size)
    return out


def _phase_table(
    pmap: ProjectionMap, phi: float, psi0: WalkState, n: int
) -> tuple[int, np.ndarray] | None:
    """The weights exp(i*phi*sigma) over every sigma the n steps from psi0
    can reach, as a pair ``(lo, values)`` for sigma = lo, lo + 1, ..., or
    None when there is no phase.  The values come from the walk module's
    one phase builder, so a weight read off the table is bitwise the one it
    would make.

    sigma is additive, so a step moves it by at most s = max |sigma_c|: the
    table spans [min sigma(psi0) - n*s, max sigma(psi0) + n*s], clipped to
    the int64 coordinate range.  It is built only when that span holds at
    most 4*n + 1 entries, psi0's sigma is an int64 block and phi*sigma
    stays within the float range over the span; else each step's weights
    are made as the step reaches them, and refused there.
    """
    if phi == 0.0:
        return None
    sigma = pmap.sigma_array(psi0.coords)
    if sigma.dtype == object:
        return None
    reach = n * max(abs(int(v)) for v in pmap.sigma_c.values())
    lo, hi = int(sigma.min()), int(sigma.max())
    if hi - lo + 2 * reach > 4 * n:
        return None
    lo, hi = max(lo - reach, -COORD_LIMIT), min(hi + reach, COORD_LIMIT)
    try:
        return lo, _phase_factors(phi, np.arange(hi - lo + 1) + lo)
    except InvalidParameter:
        return None


def check_coin_homogeneity(
    walk: WalkSpec, pmap: ProjectionMap, window: np.ndarray | Iterable[Position]
) -> HomogeneityReport:
    """Check that the coin matrix is constant on every rho-class of the window.

    The window is a coordinate block or an iterable of position tuples of
    the source space (InvalidPosition otherwise); the coin function and the
    report see positions as tuples of Python ints.
    Positional coins are compared entrywise against the first representative
    seen in each class, with tolerance ``HOMOGENEITY_TOL``; the first
    violating pair is reported together with its largest entry deviation.
    """
    coords = _position_block(window, pmap.source)
    targets = map(tuple, pmap.rho_array(coords).tolist())
    if walk.coin.is_homogeneous:
        return HomogeneityReport(True, len(set(targets)))
    reps: dict[Position, tuple[Position, np.ndarray]] = {}
    for pos, cls in zip(map(tuple, coords.tolist()), targets):
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
    window: np.ndarray | Iterable[Position] | None = None,
) -> WalkSpec:
    """The walk induced on the quotient space.

    The induced displacements are those carried by the map's target space;
    the coin at a target position is the source coin at any fiber
    representative.  For phi != 0 the step picks up exp(i*phi*sigma_c)
    phases per direction; phi must be finite (InvalidParameter otherwise).

    A homogeneous coin descends unconditionally.  A positional coin needs a
    ``window`` of source positions (a block or position tuples) over which
    fiber-constancy is checked (InhomogeneousCoin on failure); pass the
    causally relevant region, e.g. the initial support's reachable window.
    """
    _finite(phi, "phi")
    check_same_space(walk.space, pmap.source, "walk fed to the projection")
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
        if pmap.sigma_array is None:
            raise MissingSigma(f"projection {pmap.name!r} has no sigma homomorphism")
        phase = StepPhase(phi, pmap.sigma_c)
    return WalkSpec(pmap.target, coin, phase)


def _coin_window(walk: WalkSpec, psi0: WalkState, n: int) -> np.ndarray | None:
    """The window on which :func:`induced_walk` checks a positional coin for a
    run of n steps from psi0: every site psi0 reaches; None for a
    homogeneous coin, which needs none."""
    return None if walk.coin.is_homogeneous else reachable_window(walk.space, psi0.coords, n)


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
    norm of psi0, so scaling psi0 does not change the verdict; ``tol`` must
    be finite and > 0 (InvalidParameter otherwise).  Each projection, of
    psi0 and of the parent after every step, raises NullProjection as
    :func:`project_state` does when it cancels.

    The parent steps as :func:`~qwproj.walk.evolve` does, through
    :func:`~qwproj.walk.apply_coin` and :func:`~qwproj.walk.apply_step`,
    and each parent state is let go at the end of its step, so that a step
    holds one parent state, its coined block and one merge.  The induced walk
    steps on bare coordinate and coin blocks through the walk module's one
    block loop, which reuses a step's merge when the supports repeat, as
    they soon do on a finite quotient.  Each induced step is taken after
    the parent's, so an error either branch raises comes at the step where
    evolving that branch alone raises it.  Each step's projection and
    residual share one merge: :func:`_project_phases` groups the induced
    sites with the parent's rho-images, and the induced coins are
    subtracted from the fiber sums there.  The parent's weights
    exp(i*phi*sigma) come from the walk module's one phase builder: read
    off one table it makes over the sigma range the n steps can reach,
    when that range holds at most 4*n + 1 values (see :func:`_phase_table`),
    else made for each step, as for a step whose sigma leaves the table.
    The residuals are bitwise those of :func:`project_state` followed by
    :func:`~qwproj.hilbert.diff_norm`.
    """
    n = _count(n, "step count")
    _finite(tol, "tol", positive=True)
    projected = project_state(pmap, phi, psi0)
    induced = induced_walk(walk, pmap, phi, window=_coin_window(walk, psi0, n))
    table = _phase_table(pmap, phi, psi0, n)
    lower = _walk_blocks(induced, projected.coords, projected.coins, n, induced.step_phases())
    residuals = []
    for upper in _walk_states(walk, psi0, n):
        coords, coins = next(lower)
        _, (diff,), landed = _project_phases(pmap, (phi,), upper, coords, table)
        # The induced state holds each site once, so no index repeats.
        diff[landed] -= coins
        residuals.append(_norm(diff))
        del upper  # so that the next step frees its coin block
    max_residual = max(residuals, default=0.0)
    psi0_norm = norm(psi0)
    passed = max_residual < tol * psi0_norm
    _debug(
        __name__,
        "commutation check %s over %d steps: max residual %.3e (tol %.1e)",
        pmap.name,
        n,
        max_residual,
        tol,
    )
    return CommutationReport(n, tuple(residuals), max_residual, passed, psi0_norm)

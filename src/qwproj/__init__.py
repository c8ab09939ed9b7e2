"""Coined discrete-time quantum walks with graph-quotient projections.

The library simulates coined walks on abstract position sets with exact
sparse support, builds quotient projections of the walking graph, produces
the induced walk on the quotient, verifies the projection/evolution
intertwining numerically, and inverts phase-decorated projection families
back to the parent state.
"""

from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    InconsistentGrid,
    InhomogeneousCoin,
    InvalidParameter,
    InvalidPosition,
    MissingSigma,
    NotUnitary,
    NullProjection,
    QwprojError,
    SpaceMismatch,
    StateOutsideSubspace,
    SubspaceNotInvariant,
)
from .spaces import (
    BezoutPair,
    ConsistencyReport,
    Displacement,
    Position,
    PositionSpace,
    ProjectionMap,
    bezout,
    check_rho_consistency,
    circle,
    cyclic_quotient,
    displacement_apply,
    lattice_2d,
    lattice_quotient,
    line,
    llattice,
    llattice_quotient,
    reachable_window,
)
from .hilbert import (
    WalkState,
    add,
    diff_norm,
    distribution_csv,
    from_json_dict,
    inner,
    json_chunks,
    json_text,
    max_abs_difference,
    norm,
    position_distribution,
    scale,
    state_new,
    to_json_dict,
)
from .walk import (
    CoinAssignment,
    StepPhase,
    WalkSpec,
    apply_coin,
    apply_step,
    dense_unitary,
    evolve,
    evolve_recurrence,
    grover_coin,
    hadamard_coin,
    state_to_vector,
)
from .projection import (
    CommutationReport,
    HomogeneityReport,
    check_coin_homogeneity,
    induced_walk,
    project_state,
    verify_commutation,
)
from .reconstruction import (
    phase_grid,
    phase_projection_family,
    plan_reconstruction,
    reconstruct,
    reconstruct_support,
)
from .catalog import (
    SCENARIO_NAMES,
    ScenarioDescriptor,
    projected_trapped_state,
    restrict_to_three_coin,
    scenario,
    trapped_state,
)

__version__ = "0.1.0"

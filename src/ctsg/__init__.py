"""Finite-horizon zero-sum risk-sensitive continuous-time stochastic game solver."""

from .errors import (
    CertificateError,
    CtsgError,
    DiscretizationError,
    ModelScaleError,
    NumericsError,
    StructureError,
)
from .example_games import build_gaussian, build_rps, discretize_density
from .matrix_game import MatrixGameSolution, solve_matrix_game
from .model import (
    GameModel,
    LyapunovCertificate,
    ValidationReport,
    ValueBounds,
    check_assumptions,
    compute_value_bounds,
    validate_generator,
)
from .shapley import (
    PolicyPair,
    TimeGrid,
    ValueGrid,
    apply_gamma,
    game_value_field,
    verify_saddle,
    weighted_payoff,
)
from .simulate import DeviationReport, McEstimate, deviation_gain, estimate_value
from .solver import (
    SolverConfig,
    SolverReport,
    contraction_constants,
    grid_refinement_check,
    solve,
    stopping_threshold,
)
from .truncation import (
    LadderReport,
    floor_and_shift,
    run_ladder,
    sublevel_set,
    truncate_nonnegative,
)

__all__ = [
    "CertificateError",
    "CtsgError",
    "DeviationReport",
    "DiscretizationError",
    "GameModel",
    "LadderReport",
    "LyapunovCertificate",
    "MatrixGameSolution",
    "McEstimate",
    "ModelScaleError",
    "NumericsError",
    "PolicyPair",
    "SolverConfig",
    "SolverReport",
    "StructureError",
    "TimeGrid",
    "ValidationReport",
    "ValueBounds",
    "ValueGrid",
    "apply_gamma",
    "build_gaussian",
    "build_rps",
    "check_assumptions",
    "compute_value_bounds",
    "contraction_constants",
    "deviation_gain",
    "discretize_density",
    "estimate_value",
    "floor_and_shift",
    "game_value_field",
    "grid_refinement_check",
    "run_ladder",
    "solve",
    "solve_matrix_game",
    "stopping_threshold",
    "sublevel_set",
    "truncate_nonnegative",
    "validate_generator",
    "verify_saddle",
    "weighted_payoff",
]

__version__ = "0.1.0"

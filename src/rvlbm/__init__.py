"""Relative-velocity lattice Boltzmann schemes with one conservation law.

Simulation of the collide-and-stream dynamics, mechanical derivation of the
third-order equivalent equation (advection, diffusion and dispersion
tensors), and independent verification through Fourier amplification
analysis and direct runs.

The package exports the documented API, the SchemeError tree and the
payloads behind the CLI; every other name is reached through its module.
"""

from .config import load_config, reference_config
from .dispersion import (
    amplification_matrix,
    compare_with_prediction,
    dominant_eigenvalue,
    extract_symbol_series,
    geometric_dt_sequence,
)
from .equivalent import (
    conservation_defaults,
    derive_equivalent_equation,
    dhumieres_crosscheck,
    transition_prediction,
)
from .errors import (
    BranchAmbiguity,
    DimensionMismatch,
    NonConstantShift,
    NonLatticeVelocity,
    OrderUnavailable,
    PoorFit,
    SchemaError,
    SchemeError,
    SingularMatrix,
    ValidationError,
)
from .experiments import (
    analyze_payload,
    convergence_payload,
    dispersion_payload,
    initial_state,
    refinement_study,
    residual_pair,
    simulate_payload,
    verify_report,
)
from .lattice import MomentPolynomial, VelocitySet, build_moment_matrix
from .scheme import (
    SchemeSpec,
    VelocityShift,
    collide,
    equilibrium_state,
    fourier_mode_state,
    make_state,
    run,
    sine_density,
    step,
    stream,
)

__version__ = "0.1.0"

__all__ = [
    "BranchAmbiguity",
    "DimensionMismatch",
    "MomentPolynomial",
    "NonConstantShift",
    "NonLatticeVelocity",
    "OrderUnavailable",
    "PoorFit",
    "SchemaError",
    "SchemeError",
    "SchemeSpec",
    "SingularMatrix",
    "ValidationError",
    "VelocitySet",
    "VelocityShift",
    "amplification_matrix",
    "analyze_payload",
    "build_moment_matrix",
    "collide",
    "compare_with_prediction",
    "conservation_defaults",
    "convergence_payload",
    "derive_equivalent_equation",
    "dhumieres_crosscheck",
    "dispersion_payload",
    "dominant_eigenvalue",
    "equilibrium_state",
    "extract_symbol_series",
    "fourier_mode_state",
    "geometric_dt_sequence",
    "initial_state",
    "load_config",
    "make_state",
    "reference_config",
    "refinement_study",
    "residual_pair",
    "run",
    "simulate_payload",
    "sine_density",
    "step",
    "stream",
    "transition_prediction",
    "verify_report",
]

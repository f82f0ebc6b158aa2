"""tubeint: simulation and invariant diagnostics for z'' + w^2 z + g(t) z^2 = 0.

The oscillator admits an exact quadratic invariant when g is built from a
solution of a forced third-order coefficient equation; this package
integrates the coupled system, evaluates the exact and third-order
perturbative invariants, and measures the resonance diagnostics that obstruct
periodic coefficients.
"""

__version__ = "0.1.0"

from .errors import TubeIntError
from .model import (
    SystemParams,
    Trajectory,
    validate_params,
)
from .integrate import (
    IntegrationConfig,
    convergence_order,
    integrate_coupled,
    integrate_y,
    integrate_z,
)
from .perturb import (
    ValidityWindow,
    alpha2_derivatives,
    equation_residual,
    g_of_t,
    validity,
    y_composite,
)
from .invariant import (
    TubeFilament,
    drift_experiment,
    exact_drift_experiment,
    invariant_exact_series,
    tube_surface_samples,
)
from .resonance import (
    DefectSeries,
    HarmonicWindow,
    SecularFit,
    periodicity_defect,
    project_harmonics,
    secular_slope,
    third_harmonic_check,
)
from .ermakov import (
    CubicSpline,
    LogisticDriver,
    build_driver,
    integrate_ermakov,
    lewis_invariant,
    logistic_sequence,
)

__all__ = [
    "__version__",
    "TubeIntError",
    "SystemParams",
    "Trajectory",
    "validate_params",
    "IntegrationConfig",
    "integrate_y",
    "integrate_z",
    "integrate_coupled",
    "convergence_order",
    "y_composite",
    "g_of_t",
    "alpha2_derivatives",
    "validity",
    "ValidityWindow",
    "equation_residual",
    "TubeFilament",
    "invariant_exact_series",
    "drift_experiment",
    "exact_drift_experiment",
    "tube_surface_samples",
    "HarmonicWindow",
    "SecularFit",
    "DefectSeries",
    "project_harmonics",
    "secular_slope",
    "third_harmonic_check",
    "periodicity_defect",
    "LogisticDriver",
    "CubicSpline",
    "logistic_sequence",
    "build_driver",
    "integrate_ermakov",
    "lewis_invariant",
]

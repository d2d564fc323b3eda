"""entbath: entanglement of two oscillators in a common bosonic bath.

Exact Gaussian simulation of the system+bath model, extraction of the exact
master-equation coefficients for symmetric coupling, closed-form asymptotic
entanglement envelopes, and the SD / SDR / NSD phase classification.
"""

__version__ = "0.1.0"

from .asymptotics import (
    Phase,
    PhaseSummary,
    classify,
    envelope,
    envelope_band,
    r_crit,
    s_crit,
    stationary_variances_ladder,
    stationary_variances_position,
    summarize,
)
from .bathsim import (
    FullModel,
    Trajectory,
    entanglement_trajectory,
    evolve,
    initial_state,
)
from .errors import (
    ConfigError,
    EntbathError,
    HorizonError,
    NumericsError,
    ParameterRegimeError,
    UnsupportedOperationError,
    ValidationError,
)
from .gaussian import (
    BEAM_SPLITTER,
    SYMPLECTIC_FORM,
    GaussianState,
    ModeSpec,
    log_negativity,
    mode_squeezing,
    physicality_defect,
)
from .rwa import (
    AmplitudeSolution,
    CoefficientTrace,
    MomentEvolution,
    evolve_moments_me,
    extract_coefficients,
    solve_amplitude,
)
from .spectra import (
    DiscretizedBath,
    OhmicSpectralDensity,
    discretize,
    eta_kernel,
    eta_kernel_discrete,
    thermal_occupation,
)

__all__ = [
    "Phase", "PhaseSummary", "classify", "envelope", "envelope_band", "r_crit", "s_crit",
    "stationary_variances_ladder", "stationary_variances_position", "summarize",
    "FullModel", "Trajectory", "entanglement_trajectory", "evolve", "initial_state",
    "ConfigError", "EntbathError", "HorizonError", "NumericsError",
    "ParameterRegimeError", "UnsupportedOperationError", "ValidationError",
    "BEAM_SPLITTER", "SYMPLECTIC_FORM", "GaussianState", "ModeSpec",
    "log_negativity", "mode_squeezing", "physicality_defect",
    "AmplitudeSolution", "CoefficientTrace", "MomentEvolution", "evolve_moments_me",
    "extract_coefficients", "solve_amplitude",
    "DiscretizedBath", "OhmicSpectralDensity", "discretize", "eta_kernel",
    "eta_kernel_discrete", "thermal_occupation",
]

"""entbath: entanglement of two oscillators in a common bosonic bath.

Exact Gaussian simulation of the system+bath model, extraction of the exact
master-equation coefficients for symmetric coupling, closed-form asymptotic
entanglement envelopes, and the SD / SDR / NSD phase classification.
"""

__version__ = "0.1.0"

from .asymptotics import (
    Phase,
    PhaseSummary,
    asymptotic_state,
    classify,
    dominant_frequency,
    envelope,
    envelope_band,
    r_crit,
    resource_conditions,
    s_crit,
    stationary_variances_ladder,
    stationary_variances_position,
    stationary_variances_symmetric,
    summarize,
)
from .bathsim import (
    FullModel,
    Trajectory,
    entanglement_trajectory,
    equilibrium_variances_sim,
    evolve,
    full_propagator,
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
    beam_splitter,
    coherent_product_state,
    log_negativity,
    mode_squeezing,
    partial_transpose,
    purity,
    squeezed_product_state,
    symplectic_eigenvalues,
    two_mode_squeezed_state,
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
    "Phase", "PhaseSummary", "asymptotic_state", "classify", "dominant_frequency",
    "envelope", "envelope_band", "r_crit", "resource_conditions", "s_crit",
    "stationary_variances_ladder", "stationary_variances_position",
    "stationary_variances_symmetric", "summarize",
    "FullModel", "Trajectory", "entanglement_trajectory", "equilibrium_variances_sim",
    "evolve", "full_propagator", "initial_state",
    "ConfigError", "EntbathError", "HorizonError", "NumericsError",
    "ParameterRegimeError", "UnsupportedOperationError", "ValidationError",
    "BEAM_SPLITTER", "SYMPLECTIC_FORM", "GaussianState", "ModeSpec", "beam_splitter",
    "coherent_product_state", "log_negativity", "mode_squeezing", "partial_transpose",
    "purity", "squeezed_product_state", "symplectic_eigenvalues",
    "two_mode_squeezed_state",
    "AmplitudeSolution", "CoefficientTrace", "MomentEvolution", "evolve_moments_me",
    "extract_coefficients", "solve_amplitude",
    "DiscretizedBath", "OhmicSpectralDensity", "discretize", "eta_kernel",
    "eta_kernel_discrete", "thermal_occupation",
]

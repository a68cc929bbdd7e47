"""Gaussian CV QKD key rates over composite fixed-loss + fading free-space channels."""

__version__ = "0.1.0"

from .beam import BeamScenario, EllipticSample, rytov, simulate, transmittance, turbulence_gaussian_params
from .channel import (
    CompositeChannel,
    FadingStats,
    apply_composite,
    apply_equivalent_fixed,
    fading_stats,
)
from .errors import (
    ConfigError,
    CvfadeError,
    DegenerateInput,
    DomainError,
    InternalError,
    NonPhysicalState,
    NumericalFailure,
)
from .gaussian import (
    CovarianceMatrix,
    apply_qnd,
    apply_squeezer,
    condition_on_homodyne,
    entropy_g,
    partial_trace,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    tmsv,
    vacuum,
    von_neumann_entropy,
)
from .keyrate import FiniteSizeParams, KeyRateResult, KeyRates, finite_size_penalty, holevo_dr, holevo_rr, key_rate, key_rates, mutual_information
from .optimizer import OptimizationResult, OptimizationSpec, optimize
from .sources import ProtocolParams, build_source, variance_from_db, variance_to_db

__all__ = [
    "__version__",
    "BeamScenario", "EllipticSample", "rytov", "simulate", "transmittance", "turbulence_gaussian_params",
    "CompositeChannel", "FadingStats", "apply_composite", "apply_equivalent_fixed", "fading_stats",
    "ConfigError", "CvfadeError", "DegenerateInput", "DomainError", "InternalError",
    "NonPhysicalState", "NumericalFailure",
    "CovarianceMatrix", "apply_qnd", "apply_squeezer", "condition_on_homodyne",
    "entropy_g", "partial_trace", "symplectic_eigenvalues",
    "symplectic_form", "tensor", "tmsv", "vacuum", "von_neumann_entropy",
    "FiniteSizeParams", "KeyRateResult", "KeyRates", "finite_size_penalty", "holevo_dr", "holevo_rr",
    "key_rate", "key_rates", "mutual_information",
    "OptimizationResult", "OptimizationSpec", "optimize",
    "ProtocolParams", "build_source", "variance_from_db", "variance_to_db",
]

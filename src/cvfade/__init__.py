"""Gaussian CV QKD key rates over composite fixed-loss + fading free-space channels.

The public names below load their submodule on first access (PEP 562), so
`import cvfade` imports no numpy: the command-line entry (cvfade.__main__)
can still choose the BLAS thread count before numpy starts.
"""
import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "beam": ("BeamScenario", "EllipticSample", "rytov", "simulate", "transmittance", "turbulence_gaussian_params"),
    "channel": ("CompositeChannel", "FadingStats", "apply_composite", "apply_equivalent_fixed", "fading_stats"),
    "errors": ("ConfigError", "CvfadeError", "DegenerateInput", "DomainError", "InternalError",
               "NonPhysicalState", "NumericalFailure"),
    "gaussian": ("CovarianceMatrix", "apply_qnd", "apply_squeezer", "condition_on_homodyne",
                 "entropy_g", "partial_trace", "symplectic_eigenvalues", "symplectic_spectra",
                 "symplectic_form", "tensor", "tmsv", "vacuum", "von_neumann_entropy"),
    "keyrate": ("FiniteSizeParams", "KeyRateResult", "KeyRates", "finite_size_penalty", "holevo_dr", "holevo_rr",
                "key_rate", "key_rates", "mutual_information"),
    "optimizer": ("OptimizationResult", "OptimizationSpec", "optimize"),
    "sources": ("ProtocolParams", "build_source", "variance_from_db", "variance_to_db"),
}
_MODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

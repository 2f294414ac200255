"""Pseudo-spectral simulation of the fractional Camassa-Holm family.

Periodic-domain solvers for the fCH, fKdV, and fBBM equations with
fractional dispersion of order nu, plus a diagnostics suite that
numerically samples the commutator and Lipschitz estimates behind the
local well-posedness theory.

The public names below, and the submodules, load on first access, so a
command imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "BlowUpError", "CheckpointError", "ConfigError", "FracwaveError",
        "GridMismatchError", "ParameterError", "SymbolError", "SymmetryError",
    ), "errors"),
    **dict.fromkeys((
        "Grid", "RealField", "SpectralField", "apply_symbol", "dealias", "derivative",
        "fit_phase_speed", "forward_transform", "inner_product", "inverse_transform",
        "sobolev_norm",
    ), "spectral"),
    **dict.fromkeys((
        "FractionalOrder", "apply_A", "apply_B", "apply_f", "commutator_apply",
        "fractional_laplacian", "helmholtz_inverse", "lambda_pow",
    ), "operators"),
    **dict.fromkeys((
        "Coefficients", "ModelKind", "ModelParams", "default_coefficients",
        "dispersion_speed", "fbbm_energy", "make_params", "make_rhs", "mass", "momentum",
        "rhs_fbbm", "rhs_fch", "rhs_fkdv", "rhs_linearized", "rhs_quasilinear_normalized",
    ), "models"),
    **dict.fromkeys((
        "AUTO", "BreakingReport", "Integrator", "Outcome", "SimulationResult",
        "SimulationState", "SolverConfig", "StepPlan", "auto_dt", "checkpoint_read",
        "checkpoint_write", "detect_breaking", "ifrk4_step", "integrate", "rk4_step",
    ), "timestepper"),
    **dict.fromkeys((
        "DependenceReport", "DiagnosticsReport", "LipschitzKind", "SampleSpec", "StudyKind",
        "commutator_estimate_sample", "continuous_dependence_experiment",
        "convergence_study", "kato_lipschitz_sample", "measure_phase_speed",
        "random_band_limited",
    ), "diagnostics"),
}
_SUBMODULES = ("atomic", "cli", "config", "diagnostics", "errors", "models", "operators",
               "spectral", "timestepper")

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})

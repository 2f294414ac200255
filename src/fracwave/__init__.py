"""Pseudo-spectral simulation of the fractional Camassa-Holm family.

Periodic-domain solvers for the fCH, fKdV, and fBBM equations with
fractional dispersion of order nu, plus a diagnostics suite that
numerically samples the commutator and Lipschitz estimates behind the
local well-posedness theory.
"""

__version__ = "0.1.0"

from .errors import (
    BlowUpError,
    CheckpointError,
    ConfigError,
    FracwaveError,
    GridMismatchError,
    ParameterError,
    SymbolError,
    SymmetryError,
)
from .spectral import (
    Grid,
    RealField,
    SpectralField,
    apply_symbol,
    dealias,
    derivative,
    dft_oracle,
    forward_transform,
    inner_product,
    inverse_transform,
    sobolev_norm,
)
from .operators import (
    FractionalOrder,
    apply_A,
    apply_B,
    apply_f,
    commutator_apply,
    fractional_laplacian,
    helmholtz_inverse,
    lambda_pow,
)
from .models import (
    Coefficients,
    ModelKind,
    ModelParams,
    default_coefficients,
    dispersion_speed,
    fbbm_energy,
    make_params,
    make_rhs,
    mass,
    momentum,
    rhs_fbbm,
    rhs_fch,
    rhs_fkdv,
    rhs_linearized,
    rhs_quasilinear_normalized,
)
from .timestepper import (
    AUTO,
    BreakingReport,
    Integrator,
    Outcome,
    SimulationResult,
    SimulationState,
    SolverConfig,
    StepPlan,
    auto_dt,
    checkpoint_read,
    checkpoint_write,
    detect_breaking,
    ifrk4_step,
    integrate,
    rk4_step,
)
from .diagnostics import (
    DependenceReport,
    DiagnosticsReport,
    LipschitzKind,
    SampleSpec,
    StudyKind,
    commutator_estimate_sample,
    continuous_dependence_experiment,
    convergence_study,
    kato_lipschitz_sample,
    measure_phase_speed,
    random_band_limited,
)

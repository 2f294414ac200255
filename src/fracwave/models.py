"""Right-hand sides du/dt = F(u) for the fractional wave-model family.

Model coefficients follow the generalized form

    (1 + c_evo L_nu) u_t
        = -[ c_adv u_x + c_nl u u_x + c_disp L_nu u_x
             + c_mix (2 L_nu(u u_x) + u L_nu u_x) ]

with L_nu the fractional Laplacian.  The three physical members are

    fCH   c_disp = 3/4,  c_evo = 5/4,  c_mix = 1/4
    fKdV  c_disp = -1/2, c_evo = 0,    c_mix = 0
    fBBM  c_disp = 3/4,  c_evo = 5/4,  c_mix = 0

A kind only names a default set; fBBM with c_nl = 0 is the linearization
of fCH and fBBM (pure advection if c_disp = c_evo = 0 too).  Every mode
travels at the phase speed

    c(k) = (c_adv + c_disp |k|^(2 nu)) / (1 + c_evo |k|^(2 nu))

in the linear regime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NamedChoice, ParameterError
from .operators import FractionalOrder, _on_fields, _power_of_k, laplacian_symbol
from .spectral import (
    Grid,
    RealField,
    coeffs_of,
    first_min,
    sobolev_norms,
    sobolev_weight,
    values_of,
)


class ModelKind(NamedChoice, what="model kind"):
    FCH = "fch"
    FKDV = "fkdv"
    FBBM = "fbbm"


@dataclass(frozen=True)
class Coefficients:
    c_adv: float = 1.0
    c_nl: float = 1.0
    c_disp: float = 0.0
    c_evo: float = 0.0
    c_mix: float = 0.0


_DEFAULTS = {
    ModelKind.FCH: Coefficients(c_disp=0.75, c_evo=1.25, c_mix=0.25),
    ModelKind.FKDV: Coefficients(c_disp=-0.5, c_evo=0.0, c_mix=0.0),
    ModelKind.FBBM: Coefficients(c_disp=0.75, c_evo=1.25, c_mix=0.0),
}


def default_coefficients(kind: ModelKind) -> Coefficients:
    return _DEFAULTS[kind]


@dataclass(frozen=True)
class ModelParams:
    """A model kind plus its fractional order and coefficient set.

    ``coefficients`` replaces the kind's whole set (fields it leaves out
    take the class defaults; only a config merges over the kind's set).
    c_evo >= 0 always; fBBM admits no mixed term, fKdV no evolution or
    mixed term.
    """

    kind: ModelKind
    nu: FractionalOrder
    coefficients: Coefficients | None = None

    def __post_init__(self):
        if self.coefficients is None:
            object.__setattr__(self, "coefficients", _DEFAULTS[self.kind])
        c = self.coefficients
        if c.c_evo < 0:
            raise ParameterError(f"c_evo must be nonnegative, got {c.c_evo}")
        if self.kind is ModelKind.FKDV and (c.c_evo != 0.0 or c.c_mix != 0.0):
            raise ParameterError("fKdV admits no c_evo or c_mix term")
        if self.kind is ModelKind.FBBM and c.c_mix != 0.0:
            raise ParameterError("fBBM admits no c_mix term")


def make_params(kind, nu, coefficients=None) -> ModelParams:
    """Convenience constructor taking plain strings/floats (a bare nu is strict)."""
    if not isinstance(kind, ModelKind):
        kind = ModelKind.from_string(kind)
    if not isinstance(nu, FractionalOrder):
        nu = FractionalOrder(float(nu))
    return ModelParams(kind, nu, coefficients)


# -- right-hand sides ----------------------------------------------------

class SpectralRHS:
    """du/dt of the generalized form, on the half spectrum of one grid.

    Spectra are ``rfft`` half spectra (indices 0..N/2) in the analysis
    normalization.  Every symbol is built once here, so a call costs one
    stacked inverse transform of [u, u_x, L u_x] and one stacked forward
    transform of [u u_x, u L u_x]; the L u_x rows are dropped when
    c_mix = 0 and both transforms when the model is linear.

    ``with_slope`` also returns min u_x, read off the u_x row of that
    inverse transform: a stepper's stage 1 then gives the state's breaking
    slope with no transform of its own.  A model without the product rows
    transforms ik u_hat for it.

    With ``linear=False`` the linear part, multiplier ``linear_symbol`` =
    -ik (c_adv + c_disp L) / (1 + c_evo L), is left out of the result, for
    a stepper that treats it exactly.
    """

    def __init__(self, grid: Grid, p: ModelParams, dealias: bool = True, linear: bool = True):
        c = p.coefficients
        self.n_points = grid.n_points
        self._ik = ik = grid._ik
        lap = laplacian_symbol(grid, p.nu.value)
        inv_evo = 1.0 / (1.0 + c.c_evo * lap)
        keep = grid.dealias_keep if dealias else 1.0
        self.linear_symbol = -ik * (c.c_adv + c.c_disp * lap) * inv_evo
        self._linear = self.linear_symbol if linear else None
        # rows multiplied into u_hat before the inverse transform, and the
        # weight of each product u * row_j (j >= 1) in du/dt
        if c.c_mix != 0.0:
            self._rows = np.stack([np.ones_like(lap), ik, ik * lap])
            self._weights = (
                -(c.c_nl + 2.0 * c.c_mix * lap) * inv_evo * keep,
                -c.c_mix * inv_evo * keep,
            )
        elif c.c_nl != 0.0:
            self._rows = np.stack([np.ones_like(lap), ik])
            self._weights = (-c.c_nl * inv_evo * keep,)
        else:
            self._rows = None

    def __call__(self, u_hat: np.ndarray) -> np.ndarray:
        """du/dt of one half spectrum (N/2+1,) or of a batch (M, N/2+1),
        row by row bit-identical to the single-spectrum result."""
        return self._evaluate(u_hat)[0]

    def with_slope(self, u_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(du/dt, min u_x) of ``u_hat``: min u_x is each row's least grid
        value of u_x, bit for bit that of transforming ik u_hat alone."""
        out, ux = self._evaluate(u_hat)
        if ux is None:
            ux = values_of(self._ik * u_hat, self.n_points)
        return out, first_min(ux)[0]

    def _evaluate(self, u_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """du/dt, and the grid values of u_x when the product rows hold them."""
        if self._rows is None:
            if self._linear is None:
                return np.zeros_like(u_hat), None
            return self._linear * u_hat, None
        # the rows lead, so a spectrum and a batch index the same way below
        rows = self._rows if u_hat.ndim == 1 else self._rows[:, None, :]
        vals = values_of(rows * u_hat, self.n_points)
        prods = coeffs_of(vals[0] * vals[1:])
        out = self._weights[0] * prods[0]
        if len(self._weights) > 1:
            out += self._weights[1] * prods[1]
        if self._linear is not None:
            out += self._linear * u_hat
        return out, vals[1]

    def field(self, u: RealField) -> RealField:
        """du/dt as a grid function."""
        return RealField(u.grid, values_of(self(coeffs_of(u.values)), self.n_points))


def make_rhs(grid: Grid, p: ModelParams, dealias: bool = True, linear: bool = True) -> SpectralRHS:
    """Bind a parameter set and a grid into the half-spectrum evaluator
    ``u_hat -> du/dt``; ``linear=False`` leaves the linear part out."""
    return SpectralRHS(grid, p, dealias, linear)


def rhs_fch(u: RealField, p: ModelParams, dealias: bool = True) -> RealField:
    """du/dt for the fractional Camassa-Holm equation."""
    if p.kind is not ModelKind.FCH:
        raise ParameterError(f"rhs_fch needs an FCH parameter set, got {p.kind}")
    return make_rhs(u.grid, p, dealias).field(u)


def rhs_fkdv(u: RealField, p: ModelParams, dealias: bool = True) -> RealField:
    """du/dt for the fractional Korteweg-de Vries equation."""
    if p.kind is not ModelKind.FKDV:
        raise ParameterError(f"rhs_fkdv needs an FKDV parameter set, got {p.kind}")
    return make_rhs(u.grid, p, dealias).field(u)


def rhs_fbbm(u: RealField, p: ModelParams, dealias: bool = True) -> RealField:
    """du/dt for the fractional Benjamin-Bona-Mahony equation."""
    if p.kind is not ModelKind.FBBM:
        raise ParameterError(f"rhs_fbbm needs an FBBM parameter set, got {p.kind}")
    return make_rhs(u.grid, p, dealias).field(u)


def rhs_linearized(u: RealField, p: ModelParams, dealias: bool = True) -> RealField:
    """du/dt of the linearization of ``p``'s own coefficients, of any kind:
    c_nl = c_mix = 0, in the fBBM form."""
    lin = ModelParams(ModelKind.FBBM, p.nu, replace(p.coefficients, c_nl=0.0, c_mix=0.0))
    return make_rhs(u.grid, lin, dealias).field(u)


def rhs_quasilinear_normalized(u: RealField, nu) -> RealField:
    """du/dt = -A(u)u + f(u), the unit-coefficient quasi-linear form.

    Kept separate from the physical evaluators: it is the analysis-side
    normalization that the estimate probes exercise, not a rescaling of
    any of the physical coefficient sets.
    """
    return _on_fields(nu, lambda ops, u_hat: ops.apply_f(u_hat) - ops.apply_A(u_hat, u_hat), u)


# -- dispersion and conserved functionals --------------------------------

def dispersion_speed(k, p: ModelParams):
    """Linear phase speed c(k); accepts scalars or arrays."""
    c = p.coefficients
    big_k = _power_of_k(k, p.nu.value)
    return (c.c_adv + c.c_disp * big_k) / (1.0 + c.c_evo * big_k)


def _conserved_weights(grid: Grid, p: ModelParams) -> tuple:
    """Half-spectrum weights of twice the momentum and twice the fBBM energy."""
    weight = sobolev_weight(grid, 0.0)
    lap = laplacian_symbol(grid, p.nu.value)
    return weight, weight * (1.0 + p.coefficients.c_evo * lap)


def _conserved(grid: Grid, half: np.ndarray, weights=()) -> list:
    """Mass of the half spectrum ``half``, then (1/2) its squared norm for
    each of ``weights``: momentum and fBBM energy for ``_conserved_weights``.
    One norm at a time, so no (2, N/2+1) temporary is held."""
    values = [grid.length * half[0].real]
    for weight in weights:
        norm = sobolev_norms(grid, half, weight)
        values.append(0.5 * norm * norm)  # inf past the float range, where float ** 2 raises
    return [float(v) for v in values]


def mass(u: RealField) -> float:
    """integral of u over the box: L * u_hat_0.  Conserved by the fCH flow."""
    return _conserved(u.grid, coeffs_of(u.values))[0]


def momentum(u: RealField) -> float:
    """(1/2) integral of u^2: (L/2) sum_k |u_hat_k|^2.  Conserved by fKdV."""
    return _conserved(u.grid, coeffs_of(u.values), [sobolev_weight(u.grid, 0.0)])[1]


def fbbm_energy(u: RealField, p: ModelParams) -> float:
    """(L/2) sum_k (1 + c_evo |k|^(2 nu)) |u_hat_k|^2.  Conserved by fBBM."""
    return _conserved(u.grid, coeffs_of(u.values), _conserved_weights(u.grid, p)[1:])[1]

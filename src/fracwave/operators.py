"""Fourier-multiplier operators and the quasi-linear building blocks.

The dispersive operators of the model family are all diagonal in the
periodic Fourier basis:

    fractional Laplacian   L_nu = (-d^2/dx^2)^nu      symbol |k|^(2 nu)
    Bessel-type potential  Lam^p = (1 + L_nu)^(p/2nu)  symbol (1+|k|^(2 nu))^(p/2nu)
    Helmholtz-type inverse (1 + mu L_nu)^(-1)          symbol 1/(1+mu |k|^(2 nu))

On top of these sit the quasi-linear pieces used by the evolution
equations and the estimate probes:

    commutator   [u, L_nu] w = u L_nu w - L_nu(u w)
    A(u) z       = (1+u) dz/dx + Lam^(-2nu) [u, L_nu] dz/dx
    B(u) w       = Lam ( A(u) (Lam^(-1) w) ) - A(u) w
    f(u)         = Lam^(-2nu) d/dx (u^2)

Every pointwise product is followed by the 2/3-rule truncation so the
quadratic terms stay spectrally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .spectral import (
    Grid,
    RealField,
    coeffs_of,
    require_finite,
    require_same_grid,
    values_of,
)


@dataclass(frozen=True)
class FractionalOrder:
    """Fractional dispersion exponent nu.

    The model family requires nu >= 1 (not necessarily an integer), which
    strict mode enforces; pass ``strict=False`` to admit nu in [1/2, 1)
    for exploratory operator work.
    """

    value: float
    strict: bool = True

    def __post_init__(self):
        v = self.value
        if not np.isfinite(v) or v < 0.5:
            raise ParameterError(f"fractional order must be >= 1/2, got {v}")
        if self.strict and v < 1.0:
            raise ParameterError(
                f"fractional order {v} < 1 requires strict=False (model runs "
                "assume nu >= 1)"
            )


def as_order(nu) -> FractionalOrder:
    """Coerce a bare float into a non-strict FractionalOrder."""
    if isinstance(nu, FractionalOrder):
        return nu
    return FractionalOrder(float(nu), strict=False)


# -- raw-array kernels ---------------------------------------------------
#
# The field-level operators below and the model right-hand sides all
# reduce to these.  They take and return coefficient/value arrays along
# the last axis, so a (..., N) array is a batch of rows evaluated at once.

def laplacian_symbol(grid: Grid, nu: float) -> np.ndarray:
    """|k|^(2 nu), with the k=0 entry exactly 0."""
    sym = np.abs(grid.k) ** (2.0 * nu)
    sym[0] = 0.0
    return sym


def lambda_symbol(grid: Grid, p: float, nu: float) -> np.ndarray:
    """(1 + |k|^(2 nu))^(p / (2 nu)); >= 1 for p >= 0, <= 1 for p <= 0."""
    return (1.0 + laplacian_symbol(grid, nu)) ** (p / (2.0 * nu))


def masked_product(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise product of two value arrays, dealiased (2/3 rule)."""
    return values_of(grid.dealias_keep * coeffs_of(a * b))


def _mult(grid: Grid, sym: np.ndarray, vals: np.ndarray) -> np.ndarray:
    return values_of(sym * coeffs_of(vals))


class OperatorPlan:
    """``lambda_pow``, ``apply_A``, ``apply_B`` and ``apply_f`` on one grid
    and order nu, as array kernels over value arrays of shape (..., N).

    Each symbol is built once per plan, on first use, so a caller
    evaluating many fields builds it once.  Every method returns
    the values of its field-level namesake, row by row bit for bit; like
    that namesake, ``apply_B`` raises ``BlowUpError`` at a non-finite
    intermediate.
    """

    def __init__(self, grid: Grid, nu: float):
        self.grid = grid
        self.nu = nu
        self._lambda = {}

    @cached_property
    def lap(self) -> np.ndarray:
        return laplacian_symbol(self.grid, self.nu)

    def lambda_symbol(self, p: float) -> np.ndarray:
        sym = self._lambda.get(p)
        if sym is None:
            sym = self._lambda[p] = lambda_symbol(self.grid, p, self.nu)
        return sym

    def lambda_pow(self, vals: np.ndarray, p: float) -> np.ndarray:
        return _mult(self.grid, self.lambda_symbol(p), vals)

    def apply_A(self, u: np.ndarray, z: np.ndarray) -> np.ndarray:
        grid, lap = self.grid, self.lap
        zx = values_of(grid._ik * coeffs_of(z))
        u_zx = masked_product(grid, u, zx)
        comm = masked_product(grid, u, _mult(grid, lap, zx)) - _mult(grid, lap, u_zx)
        return zx + u_zx + _mult(grid, self.lambda_symbol(-2.0 * self.nu), comm)

    def apply_B(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        inner = require_finite(self.apply_A(u, require_finite(self.lambda_pow(w, -1.0))))
        return (require_finite(self.lambda_pow(inner, 1.0))
                - require_finite(self.apply_A(u, w)))

    def apply_f(self, u: np.ndarray) -> np.ndarray:
        grid = self.grid
        sq_hat = grid.dealias_keep * coeffs_of(u * u)
        return values_of(self.lambda_symbol(-2.0 * self.nu) * grid._ik * sq_hat)


# -- field-level operators ----------------------------------------------

def fractional_laplacian(u: RealField, nu) -> RealField:
    """(-d^2/dx^2)^nu u.  Annihilates the mean."""
    nu = as_order(nu)
    return RealField(u.grid, _mult(u.grid, laplacian_symbol(u.grid, nu.value), u.values))


def lambda_pow(u: RealField, p: float, nu) -> RealField:
    """Lam^p u with Lam = (1 + (-d^2/dx^2)^nu)^(1/2nu).

    Negative powers are fine (the symbol never vanishes); p = 0 is the
    identity.
    """
    nu = as_order(nu)
    if not np.isfinite(p):
        raise ParameterError(f"lambda power must be finite, got {p}")
    return RealField(u.grid, OperatorPlan(u.grid, nu.value).lambda_pow(u.values, p))


def helmholtz_inverse(u: RealField, mu: float, nu) -> RealField:
    """(1 + mu (-d^2/dx^2)^nu)^(-1) u, the solve that isolates u_t.

    A contraction in every H^s norm (the symbol lies in (0, 1]).
    """
    nu = as_order(nu)
    if not (np.isfinite(mu) and mu > 0):
        raise ParameterError(f"helmholtz coefficient mu must be positive, got {mu}")
    sym = 1.0 / (1.0 + mu * laplacian_symbol(u.grid, nu.value))
    return RealField(u.grid, _mult(u.grid, sym, u.values))


def commutator_apply(u: RealField, w: RealField, nu) -> RealField:
    """[u, (-d^2/dx^2)^nu] w = u * L_nu w - L_nu(u * w), products dealiased."""
    nu = as_order(nu)
    grid = require_same_grid(u, w)
    lap = laplacian_symbol(grid, nu.value)
    first = masked_product(grid, u.values, _mult(grid, lap, w.values))
    second = _mult(grid, lap, masked_product(grid, u.values, w.values))
    return RealField(grid, first - second)


def apply_A(u: RealField, z: RealField, nu) -> RealField:
    """Quasi-linear advection operator A(u) z = (1+u) z_x + Lam^(-2nu)[u, L_nu] z_x."""
    nu = as_order(nu)
    grid = require_same_grid(u, z)
    return RealField(grid, OperatorPlan(grid, nu.value).apply_A(u.values, z.values))


def apply_B(u: RealField, w: RealField, nu) -> RealField:
    """B(u) w = Lam(A(u)(Lam^(-1) w)) - A(u) w, the conjugation defect of A by Lam."""
    nu = as_order(nu)
    grid = require_same_grid(u, w)
    return RealField(grid, OperatorPlan(grid, nu.value).apply_B(u.values, w.values))


def apply_f(u: RealField, nu) -> RealField:
    """Nonlinear source f(u) = Lam^(-2nu) d/dx (u^2), square dealiased."""
    nu = as_order(nu)
    return RealField(u.grid, OperatorPlan(u.grid, nu.value).apply_f(u.values))

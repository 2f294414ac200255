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
quadratic terms stay spectrally consistent.  ``OperatorPlan`` leaves the
half spectrum only for those products (``masked_product``, which checks
them on the grid); ``require_finite`` checks each spectrum it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .spectral import (
    Grid,
    RealField,
    half_coeffs_of,
    half_values_of,
    require_finite,
    require_same_grid,
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
# reduce to these.  They act along the last axis, so a (..., N/2+1) half
# spectrum array is a batch of rows evaluated at once.

def laplacian_symbol(grid: Grid, nu: float) -> np.ndarray:
    """|k|^(2 nu), with the k=0 entry exactly 0."""
    sym = np.abs(grid.k) ** (2.0 * nu)
    sym[0] = 0.0
    return sym


def lambda_symbol(grid: Grid, p: float, nu: float) -> np.ndarray:
    """(1 + |k|^(2 nu))^(p / (2 nu)); >= 1 for p >= 0, <= 1 for p <= 0."""
    return (1.0 + laplacian_symbol(grid, nu)) ** (p / (2.0 * nu))


def masked_product(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half spectrum of the pointwise product of two value arrays, checked
    finite on the grid and dealiased (2/3 rule)."""
    return grid.dealias_keep[: grid.n_points // 2 + 1] * half_coeffs_of(require_finite(a * b))


class OperatorPlan:
    """``lambda_pow``, ``commutator``, ``apply_A``, ``apply_B`` and
    ``apply_f`` on one grid and order nu, as array kernels over ``rfft``
    half spectra of shape (..., N/2+1).

    Each symbol is built once per plan, on first use, so a caller
    evaluating many fields builds it once.  Each row of a result equals
    that row's own evaluation bit for bit.
    """

    def __init__(self, grid: Grid, nu: float):
        self.grid = grid
        self.nu = nu
        self._half = grid.n_points // 2 + 1
        self._ik = grid._ik[: self._half]
        self._lambda = {}

    @cached_property
    def lap(self) -> np.ndarray:
        return laplacian_symbol(self.grid, self.nu)[: self._half]

    def lambda_symbol(self, p: float) -> np.ndarray:
        sym = self._lambda.get(p)
        if sym is None:
            if not np.isfinite(p):
                raise ParameterError(f"lambda power must be finite, got {p}")
            sym = self._lambda[p] = lambda_symbol(self.grid, p, self.nu)[: self._half]
        return sym

    def lambda_pow(self, w_hat: np.ndarray, p: float) -> np.ndarray:
        return require_finite(self.lambda_symbol(p) * w_hat)

    def commutator(self, sym: np.ndarray, u: np.ndarray, w_hat: np.ndarray):
        """([u, S] w, (u w)^) = (u S w - S(u w), u w), products dealiased, for
        the symbol ``sym`` of S, grid values ``u`` and the spectrum ``w_hat``."""
        vals = half_values_of(np.stack([sym * w_hat, w_hat]), self.grid.n_points)
        prods = masked_product(self.grid, u, vals)
        # a finite commutator implies a finite (u w)^, S being finite
        return require_finite(prods[0] - sym * prods[1]), prods[1]

    def apply_A(self, u_hat: np.ndarray, z_hat: np.ndarray, linear: bool = True) -> np.ndarray:
        """A(u) z; ``linear=False`` leaves out its linear part z_x."""
        zx = self._ik * z_hat
        comm, u_zx = self.commutator(self.lap, half_values_of(u_hat, self.grid.n_points), zx)
        return require_finite((zx + u_zx if linear else u_zx)
                              + self.lambda_symbol(-2.0 * self.nu) * comm)

    def apply_B(self, u_hat: np.ndarray, w_hat: np.ndarray) -> np.ndarray:
        # Lam, d/dx and Lam^(-1) commute, so the linear parts z_x of the two
        # A(u) terms cancel exactly: both leave them out rather than subtract
        # them in round-off.  A(u) of [Lam^(-1) w, w] in one call, u
        # broadcast over the pair.
        inner, outer = self.apply_A(u_hat, np.stack([self.lambda_pow(w_hat, -1.0), w_hat]),
                                    linear=False)
        return require_finite(self.lambda_pow(inner, 1.0) - outer)

    def apply_f(self, u_hat: np.ndarray) -> np.ndarray:
        u = half_values_of(u_hat, self.grid.n_points)
        sq_hat = masked_product(self.grid, u, u)
        return require_finite(self.lambda_symbol(-2.0 * self.nu) * self._ik * sq_hat)


def _on_fields(nu, kernel, *fields) -> RealField:
    """``kernel(plan, *half spectra of fields)`` as a field on their grid."""
    grid = require_same_grid(*fields)
    halves = [half_coeffs_of(f.values) for f in fields]
    out = kernel(OperatorPlan(grid, as_order(nu).value), *halves)
    return RealField(grid, half_values_of(out, grid.n_points))


# -- field-level operators ----------------------------------------------

def fractional_laplacian(u: RealField, nu) -> RealField:
    """(-d^2/dx^2)^nu u.  Annihilates the mean."""
    return _on_fields(nu, lambda ops, u_hat: ops.lap * u_hat, u)


def lambda_pow(u: RealField, p: float, nu) -> RealField:
    """Lam^p u with Lam = (1 + (-d^2/dx^2)^nu)^(1/2nu).

    Negative powers are fine (the symbol never vanishes); p = 0 is the
    identity.
    """
    return _on_fields(nu, lambda ops, u_hat: ops.lambda_pow(u_hat, p), u)


def helmholtz_inverse(u: RealField, mu: float, nu) -> RealField:
    """(1 + mu (-d^2/dx^2)^nu)^(-1) u, the solve that isolates u_t.

    A contraction in every H^s norm (the symbol lies in (0, 1]).
    """
    nu = as_order(nu)
    if not (np.isfinite(mu) and mu > 0):
        raise ParameterError(f"helmholtz coefficient mu must be positive, got {mu}")
    return _on_fields(nu, lambda ops, u_hat: u_hat / (1.0 + mu * ops.lap), u)


def commutator_apply(u: RealField, w: RealField, nu) -> RealField:
    """[u, (-d^2/dx^2)^nu] w = u * L_nu w - L_nu(u * w), products dealiased."""
    require_same_grid(u, w)
    return _on_fields(nu, lambda ops, w_hat: ops.commutator(ops.lap, u.values, w_hat)[0], w)


def apply_A(u: RealField, z: RealField, nu) -> RealField:
    """Quasi-linear advection operator A(u) z = (1+u) z_x + Lam^(-2nu)[u, L_nu] z_x."""
    return _on_fields(nu, OperatorPlan.apply_A, u, z)


def apply_B(u: RealField, w: RealField, nu) -> RealField:
    """B(u) w = Lam(A(u)(Lam^(-1) w)) - A(u) w, the conjugation defect of A by Lam."""
    return _on_fields(nu, OperatorPlan.apply_B, u, w)


def apply_f(u: RealField, nu) -> RealField:
    """Nonlinear source f(u) = Lam^(-2nu) d/dx (u^2), square dealiased."""
    return _on_fields(nu, OperatorPlan.apply_f, u)

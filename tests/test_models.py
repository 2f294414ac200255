from dataclasses import replace

import numpy as np
import pytest

from fracwave import (
    Coefficients,
    FractionalOrder,
    ModelKind,
    ParameterError,
    RealField,
    default_coefficients,
    derivative,
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
    sobolev_norm,
)
from fracwave.operators import lambda_symbol, laplacian_symbol
from fracwave.spectral import coeffs_of, values_of
from fracwave.timestepper import _tail_fraction
from conftest import LINEAR_FBBM, make_grid, smooth_field
from oracles import dft_oracle, full_k, full_modes, masked_product


class TestModelParams:
    def test_defaults(self):
        c = default_coefficients(ModelKind.FCH)
        assert (c.c_disp, c.c_evo, c.c_mix) == (0.75, 1.25, 0.25)
        c = default_coefficients(ModelKind.FKDV)
        assert (c.c_disp, c.c_evo, c.c_mix) == (-0.5, 0.0, 0.0)
        c = default_coefficients(ModelKind.FBBM)
        assert (c.c_disp, c.c_evo, c.c_mix) == (0.75, 1.25, 0.0)
        assert default_coefficients(ModelKind.FCH).c_adv == 1.0
        assert default_coefficients(ModelKind.FCH).c_nl == 1.0

    def test_kind_strings(self):
        assert make_params("fch", 1.0).kind is ModelKind.FCH
        assert list(ModelKind) == [ModelKind.FCH, ModelKind.FKDV, ModelKind.FBBM]
        for text in ("kdv2", "linearized", "linearized_fch", "Linearized-FCH"):
            with pytest.raises(ParameterError, match="expected one of \\['fch', 'fkdv', 'fbbm'\\]"):
                make_params(text, 1.0)

    def test_consistency(self):
        with pytest.raises(ParameterError):
            make_params("fkdv", 1.0, Coefficients(c_disp=-0.5, c_evo=1.0))
        with pytest.raises(ParameterError):
            make_params("fbbm", 1.0, Coefficients(c_disp=0.75, c_evo=1.25, c_mix=0.1))
        with pytest.raises(ParameterError):
            make_params("fch", 1.0, Coefficients(c_evo=-0.5))

    def test_strict_nu(self):
        with pytest.raises(ParameterError):
            make_params("fch", 0.75)
        assert make_params("fch", FractionalOrder(0.75, strict=False)).nu.value == 0.75

    def test_kind_guard_on_rhs(self):
        g = make_grid(16)
        u = RealField.zeros(g)
        with pytest.raises(ParameterError):
            rhs_fch(u, make_params("fkdv", 1.0))


class TestEquilibria:
    @pytest.mark.parametrize(
        "kind,coefficients",
        [("fch", None), ("fkdv", None), ("fbbm", None), ("fbbm", LINEAR_FBBM)],
        ids=["fch", "fkdv", "fbbm", "fbbm-c_nl=0"],
    )
    @pytest.mark.parametrize("value", [0.0, -0.8, 2.5])
    def test_constants_are_fixed_points(self, kind, coefficients, value):
        g = make_grid(32)
        p = make_params(kind, 1.5, coefficients)
        u = RealField(g, np.full(32, value))
        out = make_rhs(g, p).field(u)
        assert sobolev_norm(out, 0.0) <= 1e-13


class TestClosedForms:
    def test_fkdv_sine(self):
        g = make_grid(64)
        p = make_params("fkdv", 1.0)
        out = rhs_fkdv(RealField(g, np.sin(g.x)), p)
        expected = -0.5 * np.cos(g.x) - 0.5 * np.sin(2 * g.x)
        # |k|^2 k amplifies the transform round-off of the high modes
        assert np.abs(out.values - expected).max() < 1e-11

    def test_fch_linear_regime(self):
        g = make_grid(64)
        p = make_params("fch", 1.0)
        eps = 1e-6
        out = rhs_fch(RealField(g, eps * np.sin(g.x)), p)
        expected = -(7.0 / 9.0) * eps * np.cos(g.x)
        assert np.abs(out.values - expected).max() < 100 * eps**2

    def test_fch_matches_linearized_rhs(self):
        g = make_grid(64)
        p = make_params("fch", 1.0)
        eps = 1e-6
        u = RealField(g, eps * np.sin(g.x))
        diff = rhs_fch(u, p).values - rhs_linearized(u, p).values
        assert np.abs(diff).max() < 100 * eps**2

    @pytest.mark.parametrize("kind", ["fch", "fbbm", "fkdv"])
    def test_linearized_rhs_is_fbbm_without_products(self, kind, rng):
        # the linearization of p's own coefficients, whatever p's kind
        g = make_grid(64)
        p = make_params(kind, 1.3)
        u = smooth_field(g, rng, band=10)
        lin = make_params("fbbm", 1.3, replace(p.coefficients, c_nl=0.0, c_mix=0.0))
        assert np.array_equal(rhs_linearized(u, p).values, make_rhs(g, lin).field(u).values)

    def test_fbbm_agrees_with_fch_to_second_order(self):
        g = make_grid(64)
        eps = 1e-6
        u = RealField(g, eps * np.sin(g.x))
        a = rhs_fch(u, make_params("fch", 1.0))
        b = rhs_fbbm(u, make_params("fbbm", 1.0))
        assert sobolev_norm(RealField(g, a.values - b.values), 0.0) <= 10 * eps**2


class TestLinearRegime:
    @pytest.mark.parametrize("kind,k", [("fch", 1), ("fkdv", 2), ("fbbm", 3)])
    @pytest.mark.parametrize("nu", [1.0, 1.5])
    def test_rhs_matches_dispersion(self, kind, k, nu):
        g = make_grid(64)
        p = make_params(kind, nu)
        eps = 1e-6
        u = RealField(g, eps * np.sin(k * g.x))
        out = make_rhs(g, p).field(u)
        c = dispersion_speed(float(k), p)
        expected = -c * derivative(u).values
        assert np.abs(out.values - expected).max() < 100 * eps**2


class TestDispersionSpeed:
    def test_fch_unit_mode(self):
        assert dispersion_speed(1.0, make_params("fch", 1.0)) == pytest.approx(7.0 / 9.0)

    def test_fkdv_k2(self):
        assert dispersion_speed(2.0, make_params("fkdv", 1.0)) == pytest.approx(-1.0)

    @pytest.mark.parametrize("kind", ["fch", "fkdv", "fbbm"])
    def test_k0_is_advection(self, kind):
        assert dispersion_speed(0.0, make_params(kind, 1.5)) == pytest.approx(1.0)

    def test_fch_monotone_to_limit(self):
        p = make_params("fch", 1.0)
        k = np.linspace(0.0, 50.0, 200)
        c = dispersion_speed(k, p)
        assert np.all(np.diff(c) <= 1e-12)
        assert c[0] == pytest.approx(1.0)
        assert c[-1] > 0.6  # tends to c_disp/c_evo = 3/5


class TestStructuralIdentities:
    def test_fch_without_mix_is_fbbm(self, rng):
        g = make_grid(64)
        u = smooth_field(g, rng)
        fch_no_mix = make_params(
            "fch", 1.5, Coefficients(c_disp=0.75, c_evo=1.25, c_mix=0.0)
        )
        a = rhs_fch(u, fch_no_mix).values
        b = rhs_fbbm(u, make_params("fbbm", 1.5)).values
        assert np.abs(a - b).max() < 1e-12

    def test_quasilinear_zero_and_constant(self):
        g = make_grid(32)
        assert np.abs(rhs_quasilinear_normalized(RealField.zeros(g), 1.0).values).max() == 0.0
        out = rhs_quasilinear_normalized(RealField(g, np.full(32, 1.4)), 1.0)
        assert np.abs(out.values).max() < 1e-13

    def test_quasilinear_recomposition(self, rng):
        # independent term-by-term rebuild: -(1+u)u_x - Lam^-2 [u,L] u_x + Lam^-2 (u^2)_x
        g = make_grid(64)
        u = smooth_field(g, rng, band=10)
        nu = 1.0
        lap = laplacian_symbol(g, nu)
        lam_inv = lambda_symbol(g, -2.0 * nu, nu)
        ux = derivative(u).values
        u_ux = masked_product(g, u.values, ux)
        comm = masked_product(g, u.values, values_of(lap * coeffs_of(ux), 64)) - values_of(
            lap * coeffs_of(u_ux), 64
        )
        sq_x = values_of(g._ik * g.dealias_keep * coeffs_of(u.values**2), 64)
        expected = -(ux + u_ux) - values_of(lam_inv * coeffs_of(comm), 64) + values_of(
            lam_inv * coeffs_of(sq_x), 64
        )
        out = rhs_quasilinear_normalized(u, nu).values
        assert np.abs(out - expected).max() < 1e-11

    def test_quasilinear_vs_unit_coefficient_fch(self, rng):
        # The normalized quasi-linear form is NOT the all-ones fCH: the two
        # differ by exactly d/dx(u^2).  Pin that relationship.
        g = make_grid(64)
        u = smooth_field(g, rng, band=10)
        unit = make_params(
            "fch", 1.0, Coefficients(1.0, 1.0, 1.0, 1.0, 1.0)
        )
        fch_unit = rhs_fch(u, unit).values
        quasi = rhs_quasilinear_normalized(u, 1.0).values
        sq_x = values_of(g._ik * g.dealias_keep * coeffs_of(u.values**2), 64)
        assert np.abs(quasi - (fch_unit + sq_x)).max() < 1e-11


class TestConservedFunctionals:
    def test_mass(self):
        g = make_grid(64)
        assert mass(RealField(g, np.sin(g.x))) == pytest.approx(0.0, abs=1e-14)
        u = RealField(g, 1.0 + 0.1 * np.cos(g.x))
        assert mass(u) == pytest.approx(2 * np.pi, rel=1e-13)

    def test_momentum(self):
        g = make_grid(64)
        assert momentum(RealField(g, np.sin(g.x))) == pytest.approx(np.pi / 2, rel=1e-13)
        assert momentum(RealField.zeros(g)) == 0.0

    def test_fbbm_energy_sine(self):
        # (L/2) sum (1 + c_evo k^2)|u_k|^2 with |u_(+-1)|^2 = 1/4 gives 9 pi/8
        g = make_grid(64)
        p = make_params("fbbm", 1.0)
        val = fbbm_energy(RealField(g, np.sin(g.x)), p)
        assert val == pytest.approx(9 * np.pi / 8, rel=1e-13)

    def test_fbbm_energy_zero(self):
        g = make_grid(16)
        assert fbbm_energy(RealField.zeros(g), make_params("fbbm", 1.0)) == 0.0

    def test_end_coefficients_count_once(self, rng):
        # the mean and Nyquist coefficients have no conjugate partner on the
        # half spectrum; sums over the oracle's full spectrum count each once
        g = make_grid(64)
        n = g.n_points
        u = RealField(g, 0.3 + 0.2 * np.cos(n // 2 * g.x) + smooth_field(g, rng).values)
        c = dft_oracle(u)
        assert abs(c[0]) > 0.1 and abs(c[n // 2]) > 0.1
        sq = np.abs(c) ** 2
        assert momentum(u) == pytest.approx(0.5 * g.length * sq.sum(), rel=1e-13)
        p = make_params("fbbm", 1.5)
        weight = 1.0 + 1.25 * np.abs(full_k(g)) ** 3.0
        assert fbbm_energy(u, p) == pytest.approx(0.5 * g.length * (weight * sq).sum(), rel=1e-13)
        tail = np.abs(full_modes(g)) > n // 3 / 2
        assert sq[tail].sum() > 0.0
        assert _tail_fraction(g, coeffs_of(u.values)) == pytest.approx(
            sq[tail].sum() / sq.sum(), rel=1e-13)

    def test_fbbm_energy_matches_quadrature(self, rng):
        # independent route: (1/2) integral of u^2 + c_evo (L^(nu/2) u)^2
        g = make_grid(128)
        p = make_params("fbbm", 1.5)
        u = smooth_field(g, rng)
        half_lap = values_of(
            np.sqrt(laplacian_symbol(g, p.nu.value)) * coeffs_of(u.values), 128
        )
        quad = 0.5 * g.spacing * np.sum(u.values**2 + 1.25 * half_lap**2)
        assert fbbm_energy(u, p) == pytest.approx(quad, rel=1e-12)

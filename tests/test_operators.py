import numpy as np
import pytest

from fracwave import (
    BlowUpError,
    FractionalOrder,
    GridMismatchError,
    ParameterError,
    RealField,
    apply_A,
    apply_B,
    apply_f,
    commutator_apply,
    derivative,
    fractional_laplacian,
    helmholtz_inverse,
    inner_product,
    lambda_pow,
    sobolev_norm,
)
from fracwave.operators import OperatorPlan
from fracwave.spectral import half_coeffs_of
from conftest import make_grid, smooth_field
import oracles


class TestFractionalOrder:
    def test_strict_default(self):
        assert FractionalOrder(1.5).value == 1.5
        with pytest.raises(ParameterError):
            FractionalOrder(0.7)

    def test_non_strict_floor(self):
        assert FractionalOrder(0.7, strict=False).value == 0.7
        with pytest.raises(ParameterError):
            FractionalOrder(0.3, strict=False)


class TestFractionalLaplacian:
    def test_nu1_sine(self):
        g = make_grid(32)
        out = fractional_laplacian(RealField(g, np.sin(g.x)), 1.0)
        assert np.abs(out.values - np.sin(g.x)).max() < 1e-13

    def test_nu15_cos2(self):
        g = make_grid(32)
        out = fractional_laplacian(RealField(g, np.cos(2 * g.x)), 1.5)
        assert np.abs(out.values - 8.0 * np.cos(2 * g.x)).max() < 1e-12

    def test_annihilates_constants(self):
        g = make_grid(16)
        out = fractional_laplacian(RealField(g, np.full(16, 3.7)), 2.0)
        assert np.abs(out.values).max() < 1e-14


class TestLambdaPow:
    def test_inverse_weight_nu1(self):
        g = make_grid(32)
        out = lambda_pow(RealField(g, np.sin(g.x)), -2.0, 1.0)
        assert np.abs(out.values - 0.5 * np.sin(g.x)).max() < 1e-13

    @pytest.mark.parametrize("nu", [1.0, 1.5, 2.0])
    def test_constant_passthrough(self, nu):
        g = make_grid(16)
        out = lambda_pow(RealField(g, np.full(16, 2.5)), -2.0 * nu, nu)
        assert np.abs(out.values - 2.5).max() < 1e-13

    def test_nu2_cos2(self):
        g = make_grid(32)
        out = lambda_pow(RealField(g, np.cos(2 * g.x)), -4.0, 2.0)
        assert np.abs(out.values - np.cos(2 * g.x) / 17.0).max() < 1e-13

    def test_zero_power_identity(self, rng):
        g = make_grid(32)
        u = smooth_field(g, rng)
        out = lambda_pow(u, 0.0, 1.5)
        assert np.abs(out.values - u.values).max() < 1e-14

    def test_inverts(self, rng):
        g = make_grid(32)
        u = smooth_field(g, rng)
        back = lambda_pow(lambda_pow(u, 1.3, 1.5), -1.3, 1.5)
        assert np.abs(back.values - u.values).max() < 1e-12

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_nonfinite_power_refused(self, p):
        g = make_grid(16)
        with pytest.raises(ParameterError, match="lambda power must be finite"):
            lambda_pow(RealField(g, np.sin(g.x)), p, 1.0)
        with pytest.raises(ParameterError, match="lambda power must be finite"):
            OperatorPlan(g, 1.0).lambda_pow(np.sin(g.x), p)


class TestHelmholtzInverse:
    def test_paper_coefficient(self):
        g = make_grid(32)
        out = helmholtz_inverse(RealField(g, np.sin(g.x)), 1.25, 1.0)
        assert np.abs(out.values - (4.0 / 9.0) * np.sin(g.x)).max() < 1e-13

    def test_constant_passthrough(self):
        g = make_grid(16)
        out = helmholtz_inverse(RealField(g, np.full(16, -1.2)), 0.3, 1.5)
        assert np.abs(out.values + 1.2).max() < 1e-13

    def test_composition_identity(self, rng):
        g = make_grid(64)
        u = smooth_field(g, rng)
        mu, nu = 1.25, 1.0
        inv = helmholtz_inverse(u, mu, nu)
        back = inv.values + mu * fractional_laplacian(inv, nu).values
        assert np.abs(back - u.values).max() < 1e-12

    def test_bad_mu(self):
        g = make_grid(16)
        with pytest.raises(ParameterError):
            helmholtz_inverse(RealField.zeros(g), 0.0, 1.0)

    @pytest.mark.parametrize("s", [0.0, 1.0, 3.0])
    def test_contraction(self, s, rng):
        g = make_grid(64)
        u = smooth_field(g, rng)
        out = helmholtz_inverse(u, 2.0, 1.5)
        assert sobolev_norm(out, s) <= sobolev_norm(u, s) + 1e-13


class TestCommutator:
    def test_constant_u(self, rng):
        g = make_grid(64)
        w = smooth_field(g, rng)
        out = commutator_apply(RealField(g, np.full(64, 1.7)), w, 1.5)
        assert np.abs(out.values).max() < 1e-11

    def test_closed_form(self):
        g = make_grid(64)
        u = RealField(g, np.sin(g.x))
        w = RealField(g, np.cos(g.x))
        out = commutator_apply(u, w, 1.0)
        assert np.abs(out.values + 1.5 * np.sin(2 * g.x)).max() < 1e-13

    def test_bilinear(self, rng):
        g = make_grid(64)
        u, w1, w2 = (smooth_field(g, rng, band=8) for _ in range(3))
        a, b = 0.6, -1.9
        combo = RealField(g, a * w1.values + b * w2.values)
        lhs = commutator_apply(u, combo, 1.5).values
        rhs = a * commutator_apply(u, w1, 1.5).values + b * commutator_apply(u, w2, 1.5).values
        assert np.abs(lhs - rhs).max() < 1e-11

    def test_grid_mismatch(self):
        u = RealField.zeros(make_grid(16))
        w = RealField.zeros(make_grid(32))
        with pytest.raises(GridMismatchError):
            commutator_apply(u, w, 1.0)


class TestQuasilinearPieces:
    def test_a_of_zero_is_advection(self, rng):
        g = make_grid(64)
        z = smooth_field(g, rng)
        out = apply_A(RealField.zeros(g), z, 1.0)
        assert np.abs(out.values - derivative(z).values).max() < 1e-12

    def test_a_on_constant_z(self, rng):
        g = make_grid(64)
        u = smooth_field(g, rng)
        out = apply_A(u, RealField(g, np.full(64, 4.2)), 1.5)
        assert np.abs(out.values).max() < 1e-11

    def test_b_of_zero(self, rng):
        g = make_grid(64)
        w = smooth_field(g, rng)
        out = apply_B(RealField.zeros(g), w, 1.0)
        assert np.abs(out.values).max() < 1e-11

    @pytest.mark.parametrize("nu", [1.0, 1.5])
    def test_b_of_zero_is_exactly_zero(self, nu, rng):
        # the linear parts of Lam A(u) Lam^-1 w and A(u) w are left out of
        # both, not cancelled in round-off
        g = make_grid(64)
        w = smooth_field(g, rng)
        assert not apply_B(RealField.zeros(g), w, nu).values.any()

    def test_a_without_its_linear_part(self, rng):
        g = make_grid(64)
        plan = OperatorPlan(g, 1.5)
        u_hat, z_hat = (half_coeffs_of(smooth_field(g, rng).values) for _ in range(2))
        full, part = plan.apply_A(u_hat, z_hat), plan.apply_A(u_hat, z_hat, linear=False)
        assert np.abs(full - (part + plan._ik * z_hat)).max() < 1e-13 * np.abs(full).max()
        assert not plan.apply_A(np.zeros_like(u_hat), z_hat, linear=False).any()

    def test_b_of_constant(self, rng):
        g = make_grid(64)
        w = smooth_field(g, rng)
        out = apply_B(RealField(g, np.full(64, 0.9)), w, 1.0)
        assert np.abs(out.values).max() < 1e-10

    def test_f_zero_and_constant(self):
        g = make_grid(32)
        assert np.abs(apply_f(RealField.zeros(g), 1.0).values).max() == 0.0
        out = apply_f(RealField(g, np.full(32, 2.0)), 1.0)
        assert np.abs(out.values).max() < 1e-13

    def test_f_closed_form(self):
        g = make_grid(64)
        out = apply_f(RealField(g, np.sin(g.x)), 1.0)
        assert np.abs(out.values - 0.2 * np.sin(2 * g.x)).max() < 1e-13


class TestOperatorPlan:
    @pytest.mark.parametrize("method", ["lambda_pow", "commutator", "apply_A", "apply_f"])
    def test_overflowing_result_raises(self, method):
        # the products in A and f square 1e200; Lam^60 multiplies mode 1 by 2^30
        g = make_grid(32)
        plan, u = OperatorPlan(g, 1.0), 1e200 * np.sin(g.x)
        u_hat = half_coeffs_of(u)
        args = {"lambda_pow": (1e100 * u_hat, 60.0), "commutator": (plan.lap, u, u_hat),
                "apply_A": (u_hat, u_hat), "apply_f": (u_hat,)}[method]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError):
            getattr(plan, method)(*args)


def _sample(g, rng):
    # modest band and amplitude keep |k|^(2 nu) round-off amplification
    # well under the 1e-9 oracle tolerance at nu = 2
    return smooth_field(g, rng, band=max(3, g.n_points // 8), amplitude=0.5)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("nu", [1.0, 1.5, 2.0])
class TestDenseOracles:
    def test_commutator(self, n, nu, rng):
        g = make_grid(n)
        u, w = _sample(g, rng), _sample(g, rng)
        dense = oracles.commutator_matrix(g, u.values, nu) @ w.values
        fast = commutator_apply(u, w, nu).values
        assert np.abs(fast - dense).max() < 1e-9

    def test_apply_a(self, n, nu, rng):
        g = make_grid(n)
        u, z = _sample(g, rng), _sample(g, rng)
        dense = oracles.a_matrix(g, u.values, nu) @ z.values
        fast = apply_A(u, z, nu).values
        assert np.abs(fast - dense).max() < 1e-9

    def test_apply_a_on_sine(self, n, nu, rng):
        g = make_grid(n)
        s = RealField(g, np.sin(g.x))
        dense = oracles.a_matrix(g, s.values, nu) @ s.values
        fast = apply_A(s, s, nu).values
        assert np.abs(fast - dense).max() < 1e-10

    def test_apply_b(self, n, nu, rng):
        g = make_grid(n)
        u, w = _sample(g, rng), _sample(g, rng)
        dense = oracles.b_matrix(g, u.values, nu) @ w.values
        fast = apply_B(u, w, nu).values
        assert np.abs(fast - dense).max() < 1e-9

    def test_apply_f(self, n, nu, rng):
        g = make_grid(n)
        u = _sample(g, rng)
        dense = oracles.f_oracle(g, u.values, nu)
        fast = apply_f(u, nu).values
        assert np.abs(fast - dense).max() < 1e-9


class TestOperatorIdentities:
    def test_self_adjoint(self, rng):
        g = make_grid(64)
        v, w = smooth_field(g, rng), smooth_field(g, rng)
        lv_w = inner_product(fractional_laplacian(v, 1.5), w)
        v_lw = inner_product(v, fractional_laplacian(w, 1.5))
        assert lv_w == pytest.approx(v_lw, abs=1e-12)

    @pytest.mark.parametrize("nu", [1.0, 1.5, 2.0])
    def test_antisymmetry(self, nu, rng):
        # <v, L_nu dv/dx> = 0 drives the conservation laws
        g = make_grid(64)
        v = smooth_field(g, rng)
        val = inner_product(v, fractional_laplacian(derivative(v), nu))
        assert abs(val) < 1e-11

    def test_multipliers_commute(self, rng):
        g = make_grid(64)
        u = smooth_field(g, rng)
        a = lambda_pow(fractional_laplacian(u, 1.5), -1.0, 1.5)
        b = fractional_laplacian(lambda_pow(u, -1.0, 1.5), 1.5)
        assert np.abs(a.values - b.values).max() < 1e-12 * max(1.0, np.abs(a.values).max())
        c = derivative(lambda_pow(u, 2.0, 1.5))
        d = lambda_pow(derivative(u), 2.0, 1.5)
        assert np.abs(c.values - d.values).max() < 1e-12 * max(1.0, np.abs(c.values).max())

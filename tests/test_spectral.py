import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwave import (
    BlowUpError,
    Grid,
    GridMismatchError,
    ParameterError,
    RealField,
    SpectralField,
    SymbolError,
    SymmetryError,
    apply_symbol,
    dealias,
    derivative,
    dft_oracle,
    forward_transform,
    inner_product,
    inverse_transform,
    sobolev_norm,
)
from fracwave.spectral import (
    coeffs_of,
    half_coeffs_of,
    half_values_of,
    sobolev_norms,
    sobolev_weight,
    values_of,
)
from conftest import make_grid, smooth_field


class TestGrid:
    def test_points_and_wavenumbers(self):
        g = make_grid(16)
        assert g.x[0] == 0.0
        assert np.allclose(np.diff(g.x), g.spacing)
        assert g.x[-1] < g.length
        # signed layout in FFT order: 0..N/2-1 then -N/2..-1
        expected = np.fft.fftfreq(16, d=1.0 / 16)
        assert np.array_equal(g.modes, expected)
        assert np.array_equal(g.k, 2.0 * np.pi * expected / g.length)

    def test_k_max(self):
        g = Grid(length=4.0 * np.pi, n_points=32)
        assert g.k_max == pytest.approx(2.0 * np.pi / g.length * 16)

    @pytest.mark.parametrize("n", [7, 9, 6, 2, 0, -8])
    def test_bad_n(self, n):
        with pytest.raises(ParameterError):
            Grid(length=1.0, n_points=n)

    @pytest.mark.parametrize("length", [0.0, -1.0, np.inf, np.nan])
    def test_bad_length(self, length):
        with pytest.raises(ParameterError):
            Grid(length=length, n_points=16)


class TestFields:
    def test_nonfinite_rejected_with_index(self):
        g = make_grid(8)
        vals = np.zeros(8)
        vals[5] = np.nan
        with pytest.raises(BlowUpError) as err:
            RealField(g, vals)
        assert err.value.index == 5

    def test_wrong_length(self):
        with pytest.raises(GridMismatchError):
            RealField(make_grid(8), np.zeros(10))

    def test_values_frozen(self):
        u = RealField(make_grid(8), np.ones(8))
        with pytest.raises(ValueError):
            u.values[0] = 2.0

    def test_spectral_nonfinite(self):
        g = make_grid(8)
        c = np.zeros(8, dtype=complex)
        c[2] = np.inf
        with pytest.raises(BlowUpError):
            SpectralField(g, c)


class TestForwardTransform:
    def test_zero(self):
        g = make_grid(16)
        c = forward_transform(RealField.zeros(g)).coefficients
        assert np.all(c == 0)

    def test_sine_modes(self):
        g = make_grid(32)
        c = forward_transform(RealField(g, np.sin(g.x))).coefficients
        assert c[1] == pytest.approx(-0.5j, abs=1e-15)
        assert c[-1] == pytest.approx(0.5j, abs=1e-15)
        others = np.delete(c, [1, 31])
        assert np.abs(others).max() < 1e-15

    def test_mean_in_zero_mode(self, rng):
        g = make_grid(64)
        u = RealField(g, rng.normal(size=64))
        c = forward_transform(u).coefficients
        assert c[0].real == pytest.approx(u.values.mean(), rel=1e-13)

    def test_matches_oracle(self, rng):
        g = make_grid(64)
        u = RealField(g, rng.normal(size=64))
        fast = forward_transform(u).coefficients
        slow = dft_oracle(u).coefficients
        assert np.abs(fast - slow).max() < 1e-12

    def test_linearity(self, rng):
        g = make_grid(32)
        a, b = rng.normal(size=32), rng.normal(size=32)
        alpha, beta = 1.3, -0.7
        lhs = forward_transform(RealField(g, alpha * a + beta * b)).coefficients
        rhs = alpha * forward_transform(RealField(g, a)).coefficients + \
            beta * forward_transform(RealField(g, b)).coefficients
        assert np.abs(lhs - rhs).max() < 1e-13


class TestInverseTransform:
    def test_zero(self):
        g = make_grid(16)
        u = inverse_transform(SpectralField.zeros(g))
        assert np.all(u.values == 0)

    def test_sine_synthesis(self):
        g = make_grid(32)
        c = np.zeros(32, dtype=complex)
        c[1], c[-1] = -0.5j, 0.5j
        u = inverse_transform(SpectralField(g, c))
        assert np.abs(u.values - np.sin(g.x)).max() < 1e-14

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512, 1024])
    def test_roundtrip(self, n, rng):
        g = make_grid(n)
        u = RealField(g, rng.normal(size=n))
        back = inverse_transform(forward_transform(u))
        scale = np.abs(u.values).max()
        assert np.abs(back.values - u.values).max() < 1e-12 * scale

    def test_spectral_roundtrip(self, rng):
        g = make_grid(64)
        c = forward_transform(RealField(g, rng.normal(size=64))).coefficients
        back = forward_transform(inverse_transform(SpectralField(g, c)))
        assert np.abs(back.coefficients - c).max() < 1e-12

    def test_asymmetric_rejected(self):
        g = make_grid(16)
        c = np.zeros(16, dtype=complex)
        c[1] = 1.0  # no conjugate partner
        with pytest.raises(SymmetryError):
            inverse_transform(SpectralField(g, c))


class TestDftOracle:
    def test_cos_two(self):
        g = make_grid(16)
        c = dft_oracle(RealField(g, np.cos(2 * g.x))).coefficients
        assert c[2] == pytest.approx(0.5, abs=1e-14)
        assert c[-2] == pytest.approx(0.5, abs=1e-14)

    def test_constant(self):
        g = make_grid(16)
        c = dft_oracle(RealField(g, np.ones(16))).coefficients
        assert c[0] == pytest.approx(1.0, abs=1e-14)
        assert np.abs(c[1:]).max() < 1e-14

    def test_size_guard(self):
        g = make_grid(2048)
        with pytest.raises(ParameterError):
            dft_oracle(RealField.zeros(g))


class TestApplySymbol:
    def test_identity(self, rng):
        g = make_grid(32)
        f = forward_transform(RealField(g, rng.normal(size=32)))
        out = apply_symbol(f, lambda k: 1.0)
        assert np.array_equal(out.coefficients, f.coefficients)

    def test_derivative_symbol(self):
        g = make_grid(32)
        f = forward_transform(RealField(g, np.sin(g.x)))
        out = inverse_transform(apply_symbol(f, lambda k: 1j * k))
        assert np.abs(out.values - np.cos(g.x)).max() < 1e-13

    def test_cubed_magnitude(self):
        g = make_grid(32)
        f = forward_transform(RealField(g, np.cos(2 * g.x)))
        out = inverse_transform(apply_symbol(f, lambda k: np.abs(k) ** 3))
        assert np.abs(out.values - 8.0 * np.cos(2 * g.x)).max() < 1e-12

    def test_vectorized_callable(self, rng):
        g = make_grid(32)
        f = forward_transform(RealField(g, rng.normal(size=32)))
        scalar = apply_symbol(f, lambda k: float(k**2))
        vector = apply_symbol(f, lambda k: k**2)
        assert np.array_equal(scalar.coefficients, vector.coefficients)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_symbol(self):
        g = make_grid(16)
        f = forward_transform(RealField(g, np.ones(16)))
        with pytest.raises(SymbolError):
            apply_symbol(f, lambda k: 1.0 / k)  # infinite at k=0


class TestDealias:
    def test_band_limited_unchanged(self):
        g = make_grid(32)
        c = np.zeros(32, dtype=complex)
        c[3], c[-3] = -0.5j, 0.5j  # sin(3x), exactly band-limited
        f = SpectralField(g, c)
        out = dealias(f)
        assert np.array_equal(out.coefficients, f.coefficients)

    def test_idempotent(self, rng):
        g = make_grid(64)
        f = forward_transform(RealField(g, rng.normal(size=64)))
        once = dealias(f)
        twice = dealias(once)
        assert np.array_equal(once.coefficients, twice.coefficients)

    def test_support_n32(self, rng):
        # N=32: modes with |j| >= 11 zeroed, |j| <= 10 retained
        g = make_grid(32)
        f = forward_transform(RealField(g, rng.normal(size=32)))
        out = dealias(f).coefficients
        modes = g.modes.astype(int)
        assert np.all(out[np.abs(modes) >= 11] == 0)
        kept = np.abs(modes) <= 10
        assert np.array_equal(out[kept], f.coefficients[kept])

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
    def test_never_increases_norm(self, s, rng):
        g = make_grid(64)
        u = RealField(g, rng.normal(size=64))
        trimmed = dealias(forward_transform(u))
        assert sobolev_norm(trimmed, s) <= sobolev_norm(u, s) + 1e-14


class TestSobolevNorm:
    def test_sine_h0(self):
        g = make_grid(64)
        u = RealField(g, np.sin(g.x))
        assert sobolev_norm(u, 0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-12)

    def test_sine_h1(self):
        g = make_grid(64)
        u = RealField(g, np.sin(g.x))
        assert sobolev_norm(u, 1.0) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)

    def test_zero_any_s(self):
        g = make_grid(16)
        for s in (0.0, 1.5, 7.0):
            assert sobolev_norm(RealField.zeros(g), s) == 0.0

    def test_monotone_in_s(self, rng):
        g = make_grid(64)
        u = smooth_field(g, rng)
        norms = [sobolev_norm(u, s) for s in (0.0, 0.5, 1.0, 2.0, 3.5)]
        assert all(a <= b + 1e-14 for a, b in zip(norms, norms[1:]))

    def test_nonfinite_s(self):
        g = make_grid(16)
        with pytest.raises(ParameterError):
            sobolev_norm(RealField.zeros(g), np.inf)

    def test_finite_past_the_square_range(self):
        # |u_hat|^2 of 1e200 sin x overflows, its norm does not
        g = make_grid(64)
        with np.errstate(over="ignore"):
            big = sobolev_norm(RealField(g, 1e200 * np.sin(g.x)), 2.0)
        assert big == pytest.approx(1e200 * sobolev_norm(RealField(g, np.sin(g.x)), 2.0),
                                    rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([8, 10, 32, 96]), rows=st.integers(1, 4),
           s=st.floats(0.0, 4.0), scale=st.sampled_from([1.0, 2.0**-500, 2.0**700]),
           seed=st.integers(0, 2**32 - 1))
    def test_half_spectrum_equals_full_signed_sum(self, n, rows, s, scale, seed):
        # random rows carry Nyquist content; a power-of-two scale is exact,
        # and 2^700 overflows the plain sum of squares
        g = make_grid(n)
        values = np.random.default_rng(seed).standard_normal((rows, n))
        weight = sobolev_weight(g, s)
        with np.errstate(over="ignore"):
            norms = sobolev_norms(g, half_coeffs_of(scale * values), weight)
            for i in range(rows):
                alone = sobolev_norms(g, half_coeffs_of(scale * values[i]), weight)
                assert norms[i] == alone
        full = np.sum((1.0 + g.k**2) ** s * np.abs(coeffs_of(values)) ** 2, axis=-1)
        assert np.allclose(norms, scale * np.sqrt(g.length * full), rtol=1e-14, atol=0)


class TestRowKernels:
    # the batched probes and trajectories report the same numbers as one
    # field at a time only because each row of an (M, N) transform equals
    # the transform of that row alone, bit for bit
    @pytest.mark.parametrize("n", [8, 32, 96, 256])
    @pytest.mark.parametrize("m", [1, 3, 40])
    def test_rows_equal_row_by_row(self, n, m):
        rng = np.random.default_rng(1000 * n + m)
        g = make_grid(n)
        values = rng.standard_normal((m, n))
        coeffs = coeffs_of(values)
        half = half_coeffs_of(values)
        weight = sobolev_weight(g, 2.5)
        norms = sobolev_norms(g, half, weight)
        back = values_of(coeffs)
        half_back = half_values_of(half, n)
        for i in range(m):
            assert np.array_equal(coeffs[i], coeffs_of(values[i]))
            assert np.array_equal(back[i], values_of(coeffs[i]))
            assert np.array_equal(half[i], half_coeffs_of(values[i]))
            assert np.array_equal(half_back[i], half_values_of(half[i], n))
            assert norms[i] == sobolev_norm(RealField(g, values[i]), 2.5)

    def test_normalised_by_points_not_rows(self):
        # a (2, N) batch of constants keeps each mean as its zero mode
        values = np.array([np.full(16, 3.0), np.full(16, -1.0)])
        assert np.allclose(coeffs_of(values)[:, 0], [3.0, -1.0], atol=0, rtol=1e-15)
        assert np.allclose(values_of(coeffs_of(values)), values, atol=1e-15, rtol=0)


def test_parseval(rng):
    g = make_grid(128)
    u = RealField(g, rng.normal(size=128))
    grid_energy = np.sum(u.values**2) * g.spacing
    coeff_energy = g.length * np.sum(np.abs(forward_transform(u).coefficients) ** 2)
    assert grid_energy == pytest.approx(coeff_energy, rel=1e-12)


def test_derivative_of_sine():
    g = make_grid(32)
    du = derivative(RealField(g, np.sin(g.x)))
    assert np.abs(du.values - np.cos(g.x)).max() < 1e-13


def test_inner_product():
    g = make_grid(64)
    u = RealField(g, np.sin(g.x))
    assert inner_product(u, u) == pytest.approx(np.pi, rel=1e-12)
    v = RealField(g, np.cos(g.x))
    assert abs(inner_product(u, v)) < 1e-14


def test_inner_product_grid_mismatch():
    u = RealField.zeros(make_grid(16))
    v = RealField.zeros(make_grid(32))
    with pytest.raises(GridMismatchError):
        inner_product(u, v)

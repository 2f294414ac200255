"""Periodic grid, discrete Fourier transforms, multipliers, and Sobolev norms.

Everything downstream is built on the representation fixed here: a uniform
grid of N points on [0, L), and Fourier coefficients in the "analysis"
normalization

    u(x_j) = sum_k  u_hat_k * exp(i k x_j),    k = 2*pi*j/L,

with the signed index j running over [-N/2, N/2) in standard FFT order.
Under this convention u_hat_0 is the mean of u and single-mode fields have
coefficients of magnitude amplitude/2, which keeps hand-computed test
values exact.

The transforms go through numpy.fft.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowUpError,
    GridMismatchError,
    ParameterError,
    SymbolError,
    SymmetryError,
)

_SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, length).

    ``n_points`` must be even (the signed spectrum layout needs it) and at
    least 8.  Powers of two give the fastest transforms but are not
    required.
    """

    length: float
    n_points: int

    def __post_init__(self):
        if not np.isfinite(self.length) or self.length <= 0:
            raise ParameterError(f"grid length must be positive, got {self.length}")
        n = self.n_points
        if n % 2 != 0 or n < 8:
            raise ParameterError(f"n_points must be even and >= 8, got {n}")
        # Derived arrays are stashed once; the dataclass stays hashable on
        # (length, n_points) alone.  numpy sizes no array past intp-max
        # bytes, and ik takes 16 a point.
        too_large = ParameterError(f"n_points = {n} is too large to allocate")
        if n > np.iinfo(np.intp).max // 16:
            raise too_large
        try:
            x = np.arange(n) * (self.length / n)
            modes = np.fft.fftfreq(n, d=1.0 / n)  # signed indices [-N/2, N/2)
            k = (2.0 * np.pi / self.length) * modes
            ik = 1j * k
            ik[n // 2] = 0.0  # Nyquist zeroed for odd derivatives of real data
            mask = 3 * np.abs(modes) <= n  # 2/3 rule: keep |j| <= N/3
        except MemoryError:
            raise too_large from None
        for arr in (x, modes, k, ik, mask):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_ik", ik)
        object.__setattr__(self, "dealias_keep", mask)

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    @property
    def k_max(self) -> float:
        """Largest wavenumber magnitude on the grid, 2*pi*(N/2)/length."""
        return (2.0 * np.pi / self.length) * (self.n_points // 2)


def _first_nonfinite(values) -> int | None:
    finite = np.isfinite(values)
    if finite.all():
        return None
    return int(np.argmin(finite))


def require_finite(values: np.ndarray) -> np.ndarray:
    """``values`` if finite; otherwise the ``BlowUpError`` a ``RealField`` (real:
    grid values) or ``SpectralField`` (complex) of the first bad row raises."""
    idx = _first_nonfinite(values)
    if idx is not None:
        idx %= values.shape[-1]
        what = "coefficient at spectral" if np.iscomplexobj(values) else "field value at grid"
        raise BlowUpError(f"non-finite {what} index {idx}", index=idx)
    return values


@dataclass(eq=False)
class RealField:
    """A real-valued function sampled on a grid.

    Values are copied and frozen at construction; non-finite entries are
    rejected immediately with a ``BlowUpError`` so that an exploding
    simulation can never propagate NaNs silently.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.shape != (self.grid.n_points,):
            raise GridMismatchError(
                f"field has {vals.shape} values for a grid of {self.grid.n_points} points"
            )
        vals.setflags(write=False)
        self.values = require_finite(vals)

    @classmethod
    def zeros(cls, grid: Grid) -> "RealField":
        return cls(grid, np.zeros(grid.n_points))


@dataclass(eq=False)
class SpectralField:
    """Fourier coefficients of a grid function, signed layout, analysis
    normalization (see module docstring)."""

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=np.complex128, copy=True)
        if coeffs.shape != (self.grid.n_points,):
            raise GridMismatchError(
                f"spectrum has {coeffs.shape} coefficients for a grid of "
                f"{self.grid.n_points} points"
            )
        coeffs.setflags(write=False)
        self.coefficients = require_finite(coeffs)

    @classmethod
    def zeros(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros(grid.n_points, dtype=np.complex128))


def require_same_grid(*fields) -> Grid:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatchError(
                f"fields live on different grids: {grid} vs {f.grid}"
            )
    return grid


# -- raw-array transform kernels (shared by the field-level API and the
#    hot loops in models/timestepper/diagnostics) -------------------------
#
# Each acts along the last axis, so a (..., N) array is a batch of rows,
# and each row's result is bit-identical to transforming that row alone.

def coeffs_of(values: np.ndarray) -> np.ndarray:
    return np.fft.fft(values) / values.shape[-1]


def values_of(coeffs: np.ndarray) -> np.ndarray:
    return (coeffs.shape[-1] * np.fft.ifft(coeffs)).real


def half_coeffs_of(values: np.ndarray) -> np.ndarray:
    """Coefficients of indices 0..N/2 (the ``rfft`` layout) along the last
    axis; the rest follow by conjugate symmetry."""
    return np.fft.rfft(values, norm="forward")


def half_values_of(coeffs: np.ndarray, n_points: int) -> np.ndarray:
    """Grid values from a half spectrum along the last axis.  The imaginary
    parts of the mean and Nyquist coefficients are ignored."""
    return np.fft.irfft(coeffs, n_points, norm="forward")


def first_min(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's least value and its index along the last axis of one
    array (N,) or a batch (M, N): the first one, so of -0.0 and 0.0 the
    earlier is read."""
    i = values.argmin(axis=-1)
    return (values[i] if values.ndim == 1 else values[np.arange(len(values)), i]), i


def symmetry_defect(coeffs: np.ndarray) -> float:
    """Max deviation from conjugate symmetry u_hat(-k) = conj(u_hat(k))."""
    n = len(coeffs)
    mirrored = coeffs[(-np.arange(n)) % n]
    return float(np.abs(mirrored - np.conj(coeffs)).max())


def forward_transform(u: RealField) -> SpectralField:
    """Fourier coefficients of ``u`` (fast path, O(N log N))."""
    return SpectralField(u.grid, coeffs_of(u.values))


def inverse_transform(field: SpectralField) -> RealField:
    """Synthesize the real grid function from coefficients.

    The coefficients must be conjugate-symmetric to within 1e-10
    (relative to the largest coefficient); otherwise the requested real
    result does not exist and a ``SymmetryError`` is raised.
    """
    coeffs = field.coefficients
    scale = max(1.0, float(np.abs(coeffs).max()))
    defect = symmetry_defect(coeffs)
    if defect > _SYMMETRY_TOL * scale:
        raise SymmetryError(
            f"spectrum is not conjugate-symmetric (defect {defect:.3e}, "
            f"scale {scale:.3e}); real output is undefined"
        )
    return RealField(field.grid, values_of(coeffs))


def apply_symbol(field: SpectralField, m) -> SpectralField:
    """Multiply coefficients by a Fourier symbol, u_hat_k <- m(k) u_hat_k.

    ``m`` maps a physical wavenumber to a real or complex factor.  It may
    be vectorized over the wavenumber array or scalar-only; both work.
    Non-finite symbol values raise ``SymbolError`` naming the wavenumber.
    """
    k = field.grid.k
    try:
        m_vals = np.asarray(m(k), dtype=np.complex128)
        if m_vals.shape != k.shape:
            raise TypeError
    except (TypeError, ValueError):
        m_vals = np.array([m(kj) for kj in k], dtype=np.complex128)
    bad = _first_nonfinite(m_vals)
    if bad is not None:
        raise SymbolError(
            f"symbol is non-finite at wavenumber k={k[bad]} (index {bad})"
        )
    return SpectralField(field.grid, m_vals * field.coefficients)


def dealias(field: SpectralField) -> SpectralField:
    """Zero every mode with |k| beyond two thirds of the grid maximum.

    Idempotent; removes exactly the band that aliased quadratic products
    can contaminate.
    """
    return SpectralField(field.grid, field.coefficients * field.grid.dealias_keep)


def derivative(u: RealField) -> RealField:
    """Spectral d/dx.  The Nyquist mode is zeroed, which keeps odd
    derivatives of real data real."""
    n = u.grid.n_points
    return RealField(u.grid, half_values_of(u.grid._ik[: n // 2 + 1] * half_coeffs_of(u.values), n))


def sobolev_weight(grid: Grid, s: float) -> np.ndarray:
    """The weight of each half-spectrum coefficient in the squared H^s norm:
    (1+k^2)^s, twice at interior indices, which stand for a conjugate pair;
    a ParameterError naming s and k_max where a weight overflows."""
    if not np.isfinite(s):
        raise ParameterError(f"Sobolev index must be finite, got {s}")
    weight = (1.0 + grid.k[: grid.n_points // 2 + 1] ** 2) ** s
    weight[1:-1] *= 2.0
    if not np.isfinite(weight).all():
        raise ParameterError(
            f"Sobolev index s = {s:g} overflows the weight 2 (1 + k^2)^s at k_max = {grid.k_max:g}"
        )
    return weight


def sobolev_norms(grid: Grid, half: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """H^s norms along the last axis of half spectra, for ``weight`` =
    ``sobolev_weight(grid, s)``.  A row whose sum of squares overflows is
    summed again scaled exactly by a power of two; no other row changes."""
    norms_of = lambda c: np.sqrt(grid.length * np.sum(weight * np.abs(c) ** 2, axis=-1))
    norms = norms_of(half)
    big = ~np.isfinite(norms)
    if big.any():  # exponent 0 leaves a row as it is
        exp = np.where(big, np.frexp(np.abs(half).max(axis=-1))[1], 0)
        norms = np.ldexp(norms_of(half * np.ldexp(1.0, -exp)[..., None]), exp)
    return norms


def sobolev_norm(u, s: float) -> float:
    """H^s norm with the Bessel weight: ( L * sum_k (1+k^2)^s |u_hat_k|^2 )^(1/2).

    Accepts either a RealField or a SpectralField; a SpectralField is read
    as the spectrum of a real field, from its indices 0..N/2.
    """
    n = u.grid.n_points
    half = half_coeffs_of(u.values) if isinstance(u, RealField) else u.coefficients[: n // 2 + 1]
    return float(sobolev_norms(u.grid, half, sobolev_weight(u.grid, s)))


def inner_product(u: RealField, v: RealField) -> float:
    """Discrete L^2 inner product, (L/N) * sum_j u_j v_j."""
    require_same_grid(u, v)
    return float(u.grid.spacing * np.dot(u.values, v.values))


# -- phase-speed fit -------------------------------------------------------

def fit_phase_speed(times, coeffs, grid: Grid, mode: int) -> float:
    """Phase speed of Fourier mode ``mode`` of ``grid`` from its
    coefficients ``coeffs`` at ``times``.

    Fits the unwrapped phase of u_hat_mode(t) against t; needs the mode
    populated and at least two snapshots.
    """
    if len(times) < 2:
        raise ParameterError("phase-speed fit needs at least two snapshots")
    coeffs = np.asarray(coeffs)
    if np.abs(coeffs).min() < 1e-300:
        raise ParameterError(f"mode {mode} is not populated; cannot fit its phase")
    phases = np.unwrap(np.angle(coeffs))
    return float(-_fit_line(times, phases)[0] / grid.k[mode])


def _fit_line(x, y) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line through the points
    (x, y), from centred sums: no linear-algebra library is loaded."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = float((dx * (y - y_mean)).sum() / (dx * dx).sum())
    return slope, float(y_mean - slope * x_mean)

"""Periodic grid, discrete Fourier transforms, multipliers, and Sobolev norms.

Everything downstream is built on the representation fixed here: a uniform
grid of N points on [0, L), and Fourier coefficients in the "analysis"
normalization

    u(x_j) = sum_k  u_hat_k * exp(i k x_j),    k = 2*pi*j/L,

with the signed index j running over [-N/2, N/2).  Under this convention
u_hat_0 is the mean of u and single-mode fields have coefficients of
magnitude amplitude/2, which keeps hand-computed test values exact.

Every field is real, so its spectrum is conjugate-symmetric and the
coefficients of j = 0..N/2 (the ``rfft`` layout) are the whole of it: that
half spectrum is the one spectral layout of the package.  Its last entry is
the Nyquist coefficient, at signed index -N/2.  ``Grid.modes``, ``k``,
``_ik`` and ``dealias_keep`` hold those N/2+1 entries; ``Grid.x`` holds the
N grid points.  The one transform pair is ``coeffs_of``/``values_of``.

The transform is the one kernel the stepper, the snapshot sink and the
probes are built on, and at small N numpy.fft's Python-level argument
checks cost more than the transform itself.  So the kernel is chosen once,
at import, and named by ``FFT_KERNEL``: the pocketfft gufuncs that
``np.fft.rfft``/``irfft`` call after those checks, with the same factors
(1/N forward, 1 inverse), wherever numpy has them (numpy >= 2) and a small
probe gives ``np.fft``'s arrays bit for bit; ``np.fft`` itself otherwise.
Either way the numbers equal ``np.fft.rfft``/``irfft(norm="forward")``
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, GridMismatchError, ParameterError, SymbolError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, length).

    ``n_points`` must be even (the half spectrum then ends on the Nyquist
    mode) and at least 8.  Powers of two give the fastest transforms but
    are not required.
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
        # bytes, and ik takes 16 an entry.
        too_large = ParameterError(f"n_points = {n} is too large to allocate")
        if n > np.iinfo(np.intp).max // 16:
            raise too_large
        try:
            x = np.arange(n) * (self.length / n)
            modes = np.fft.rfftfreq(n, d=1.0 / n)  # indices 0..N/2
            modes[-1] = -modes[-1]  # the Nyquist mode's signed index is -N/2
            k = (2.0 * np.pi / self.length) * modes
            ik = 1j * k
            ik[-1] = 0.0  # Nyquist zeroed for odd derivatives of real data
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
    """Fourier coefficients of a real grid function: the N/2+1 entries of
    the half spectrum, analysis normalization (see module docstring)."""

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=np.complex128, copy=True)
        if coeffs.shape != self.grid.k.shape:
            raise GridMismatchError(
                f"spectrum has {coeffs.shape} coefficients; a grid of "
                f"{self.grid.n_points} points has {len(self.grid.k)}"
            )
        coeffs.setflags(write=False)
        self.coefficients = require_finite(coeffs)

    @classmethod
    def zeros(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros(grid.k.shape, dtype=np.complex128))


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

try:  # numpy >= 2: the gufuncs behind np.fft.rfft/irfft
    from numpy.fft import _pocketfft_umath as _pfu

    _RFFT, _IRFFT = (_pfu.rfft_n_even, _pfu.rfft_n_odd), _pfu.irfft  # _RFFT[N % 2]
except (ImportError, AttributeError):  # numpy < 2 has no such module
    _RFFT = _IRFFT = None


def coeffs_of(values: np.ndarray) -> np.ndarray:
    """Coefficients of indices 0..N/2 (the half spectrum) along the last
    axis of float64 values; the rest follow by conjugate symmetry."""
    n = values.shape[-1]
    # C order: np.fft lays its output out like the input, and no array the
    # package transforms is Fortran-ordered
    out = np.empty(values.shape[:-1] + (n // 2 + 1,), np.complex128)
    return _RFFT[n % 2](values, 1.0 / n, out=out)


def values_of(coeffs: np.ndarray, n_points: int) -> np.ndarray:
    """Grid values from a half spectrum along the last axis.  The imaginary
    parts of the mean and Nyquist coefficients are ignored."""
    return _IRFFT(coeffs, 1.0, out=np.empty(coeffs.shape[:-1] + (n_points,)))


def _fft_coeffs_of(values: np.ndarray) -> np.ndarray:
    """``coeffs_of`` through np.fft: the reference, and the fallback kernel."""
    return np.fft.rfft(values, norm="forward")


def _fft_values_of(coeffs: np.ndarray, n_points: int) -> np.ndarray:
    """``values_of`` through np.fft: the reference, and the fallback kernel."""
    return np.fft.irfft(coeffs, n_points, norm="forward")


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _direct_kernel_matches() -> bool:
    """Whether the gufunc pair gives np.fft's arrays bit for bit, both ways,
    on a 1-D row, a 2-row batch and a strided slice, with imaginary parts
    on the mean and Nyquist coefficients.  Its lengths are powers of two,
    the usual grid sizes: another length would map transform code (radix-3
    or -5 passes, say) into every process, whatever grid it runs."""
    if _RFFT is None:
        return False
    # irregular data from + and *, the loops a run uses anyway: a probe that
    # called np.cos, say, would map that loop's code in every process
    x = np.arange(32.0)
    rows = ((x * 0.7548776662466927 - 5.1) * x + 1.3).reshape(2, 16)
    halves = _fft_coeffs_of(rows) + 1j
    try:
        return all(
            _same_bits(coeffs_of(values), _fft_coeffs_of(values))
            for values in (rows[0], rows, rows[:, ::2])
        ) and all(
            _same_bits(values_of(coeffs, n), _fft_values_of(coeffs, n))
            for coeffs, n in ((halves[0], 16), (halves, 16), (halves[:, ::2], 8))
        )
    except (TypeError, ValueError):  # a gufunc whose call has changed
        return False


if _direct_kernel_matches():
    FFT_KERNEL = "numpy.fft._pocketfft_umath"
else:
    FFT_KERNEL = "numpy.fft"
    coeffs_of, values_of = _fft_coeffs_of, _fft_values_of


def first_min(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's least value and its index along the last axis of one
    array (N,) or a batch (M, N): the first one, so of -0.0 and 0.0 the
    earlier is read."""
    i = values.argmin(axis=-1)
    return (values[i] if values.ndim == 1 else values[np.arange(len(values)), i]), i


def forward_transform(u: RealField) -> SpectralField:
    """Fourier coefficients of ``u`` (fast path, O(N log N))."""
    return SpectralField(u.grid, coeffs_of(u.values))


def inverse_transform(field: SpectralField) -> RealField:
    """Synthesize the real grid function from its half spectrum; see
    ``values_of``."""
    return RealField(field.grid, values_of(field.coefficients, field.grid.n_points))


def apply_symbol(field: SpectralField, m) -> SpectralField:
    """Multiply coefficients by a Fourier symbol, u_hat_k <- m(k) u_hat_k.

    ``m`` maps a physical wavenumber to a real or complex factor.  It is
    evaluated on the half spectrum only, at ``Grid.k`` (indices 0..N/2, the
    Nyquist entry at -k_max), and the coefficients of -k follow by
    conjugate symmetry: the multiplier applied is that of a real operator,
    conj(m(k)) at -k in place of m(-k).  Synthesis ignores the imaginary
    part of the Nyquist coefficient, so an odd symbol such as ik zeroes
    that mode, as ``derivative`` does.  ``m`` may be vectorized over the
    wavenumber array or scalar-only; both work.  Non-finite symbol values
    raise ``SymbolError`` naming the wavenumber.
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
    return RealField(u.grid, values_of(u.grid._ik * coeffs_of(u.values), u.grid.n_points))


def sobolev_weight(grid: Grid, s: float) -> np.ndarray:
    """The weight of each half-spectrum coefficient in the squared H^s norm:
    (1+k^2)^s, twice at interior indices, which stand for a conjugate pair;
    a ParameterError naming s and k_max where a weight overflows."""
    if not np.isfinite(s):
        raise ParameterError(f"Sobolev index must be finite, got {s}")
    weight = (1.0 + grid.k**2) ** s
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

    Accepts either a RealField or a SpectralField.
    """
    half = coeffs_of(u.values) if isinstance(u, RealField) else u.coefficients
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

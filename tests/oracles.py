"""Independent dense-matrix oracles for the operator tests.

Each multiplier operator is assembled as an explicit N x N matrix by
composing a direct-summation DFT (``dft_oracle`` applied to basis
vectors), a diagonal symbol, and a direct-summation inverse DFT.
The quasi-linear operators are then built from those blocks plus
pointwise diagonal factors, mirroring the dealiasing placement of the
fast implementations but sharing none of their FFT code path.

The package keeps only the half spectrum (indices 0..N/2); the oracles
build the full signed layout themselves, in standard FFT order, with
``full_modes`` and numpy's complex FFT pair.

Test-only; size-guarded at N <= 128 (dense assembly is cubic-ish).
"""

from __future__ import annotations

import numpy as np

from fracwave.errors import ParameterError
from fracwave.spectral import Grid, RealField

_MAX_N = 128
_ORACLE_MAX_N = 1024


def full_modes(grid: Grid) -> np.ndarray:
    """Signed indices of the full layout, [-N/2, N/2) in FFT order."""
    return np.fft.fftfreq(grid.n_points, d=1.0 / grid.n_points)


def full_k(grid: Grid) -> np.ndarray:
    """Wavenumbers of the full layout."""
    return (2.0 * np.pi / grid.length) * full_modes(grid)


def full_keep(grid: Grid) -> np.ndarray:
    """The 2/3 rule on the full layout: keep |j| <= N/3."""
    return 3 * np.abs(full_modes(grid)) <= grid.n_points


def full_coeffs_of(values: np.ndarray) -> np.ndarray:
    """All N coefficients along the last axis, package normalization."""
    return np.fft.fft(values) / values.shape[-1]


def full_values_of(coeffs: np.ndarray) -> np.ndarray:
    """Real grid values from all N coefficients along the last axis."""
    return (coeffs.shape[-1] * np.fft.ifft(coeffs)).real


def dft_oracle(u: RealField) -> np.ndarray:
    """The N coefficients of ``u`` by direct O(N^2) summation, with the
    package normalization, an independent check of the fast transforms;
    refuses grids larger than 1024 points because of the quadratic cost."""
    n = u.grid.n_points
    if n > _ORACLE_MAX_N:
        raise ParameterError(
            f"dft_oracle is quadratic and limited to N <= {_ORACLE_MAX_N}, got {n}"
        )
    j = np.arange(n)
    # exp(-i k_m x_j) = exp(-2*pi*i*m*j/N) regardless of L
    kernel = np.exp(-2j * np.pi * np.outer(j, j) / n)
    return kernel @ u.values / n


def _guard(grid: Grid) -> None:
    if grid.n_points > _MAX_N:
        raise ValueError(f"dense oracles are limited to N <= {_MAX_N}")


def dft_matrix(grid: Grid) -> np.ndarray:
    """Forward-transform matrix, column by column via dft_oracle."""
    _guard(grid)
    n = grid.n_points
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(dft_oracle(RealField(grid, e)))
    return np.column_stack(cols)


def idft_matrix(grid: Grid) -> np.ndarray:
    """Inverse transform by direct summation: u_j = sum_k c_k e^{i k x_j}."""
    _guard(grid)
    n = grid.n_points
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n)


def multiplier_matrix(grid: Grid, symbol: np.ndarray) -> np.ndarray:
    """Real N x N matrix of a conjugate-symmetric Fourier multiplier."""
    return (idft_matrix(grid) @ np.diag(symbol) @ dft_matrix(grid)).real


def derivative_matrix(grid: Grid) -> np.ndarray:
    ik = 1j * full_k(grid)
    ik[grid.n_points // 2] = 0.0  # same Nyquist convention as the fast path
    return (idft_matrix(grid) @ np.diag(ik) @ dft_matrix(grid)).real


def dealias_matrix(grid: Grid) -> np.ndarray:
    return multiplier_matrix(grid, full_keep(grid).astype(float))


def laplacian_matrix(grid: Grid, nu: float) -> np.ndarray:
    sym = np.abs(full_k(grid)) ** (2.0 * nu)
    sym[0] = 0.0
    return multiplier_matrix(grid, sym)


def lambda_matrix(grid: Grid, p: float, nu: float) -> np.ndarray:
    sym = np.abs(full_k(grid)) ** (2.0 * nu)
    sym[0] = 0.0
    return multiplier_matrix(grid, (1.0 + sym) ** (p / (2.0 * nu)))


def commutator_matrix(grid: Grid, u: np.ndarray, nu: float) -> np.ndarray:
    """[u, L_nu] with dealiased products: P diag(u) L - L P diag(u)."""
    big_l = laplacian_matrix(grid, nu)
    proj = dealias_matrix(grid)
    du = np.diag(u)
    return proj @ du @ big_l - big_l @ proj @ du


def a_matrix(grid: Grid, u: np.ndarray, nu: float) -> np.ndarray:
    """A(u) = D + P diag(u) D + Lam^(-2nu) [u, L_nu] D."""
    d = derivative_matrix(grid)
    proj = dealias_matrix(grid)
    lam_inv = lambda_matrix(grid, -2.0 * nu, nu)
    return d + proj @ np.diag(u) @ d + lam_inv @ commutator_matrix(grid, u, nu) @ d


def b_matrix(grid: Grid, u: np.ndarray, nu: float) -> np.ndarray:
    """B(u) = Lam A(u) Lam^(-1) - A(u)."""
    a = a_matrix(grid, u, nu)
    lam = lambda_matrix(grid, 1.0, nu)
    lam_inv = lambda_matrix(grid, -1.0, nu)
    return lam @ a @ lam_inv - a


def f_oracle(grid: Grid, u: np.ndarray, nu: float) -> np.ndarray:
    """f(u) = Lam^(-2nu) D P (u*u); the square is pointwise."""
    d = derivative_matrix(grid)
    proj = dealias_matrix(grid)
    lam_inv = lambda_matrix(grid, -2.0 * nu, nu)
    return lam_inv @ d @ proj @ (u * u)


def masked_product(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise product of two value arrays, dealiased (2/3 rule) on the
    full spectrum: the reference the half-spectrum kernels are checked by."""
    return full_values_of(full_keep(grid) * full_coeffs_of(a * b))

"""Independent dense-matrix oracles for the operator tests.

Each multiplier operator is assembled as an explicit N x N matrix by
composing a direct-summation DFT (the package's dft_oracle applied to
basis vectors), a diagonal symbol, and a direct-summation inverse DFT.
The quasi-linear operators are then built from those blocks plus
pointwise diagonal factors, mirroring the dealiasing placement of the
fast implementations but sharing none of their FFT code path.

Test-only; size-guarded at N <= 128 (dense assembly is cubic-ish).
"""

from __future__ import annotations

import numpy as np

from fracwave.spectral import Grid, RealField, coeffs_of, dft_oracle, values_of

_MAX_N = 128


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
        cols.append(dft_oracle(RealField(grid, e)).coefficients)
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
    ik = 1j * grid.k.copy()
    ik[grid.n_points // 2] = 0.0  # same Nyquist convention as the fast path
    return (idft_matrix(grid) @ np.diag(ik) @ dft_matrix(grid)).real


def dealias_matrix(grid: Grid) -> np.ndarray:
    return multiplier_matrix(grid, grid.dealias_keep.astype(float))


def laplacian_matrix(grid: Grid, nu: float) -> np.ndarray:
    sym = np.abs(grid.k) ** (2.0 * nu)
    sym[0] = 0.0
    return multiplier_matrix(grid, sym)


def lambda_matrix(grid: Grid, p: float, nu: float) -> np.ndarray:
    sym = np.abs(grid.k) ** (2.0 * nu)
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
    return values_of(grid.dealias_keep * coeffs_of(a * b))

"""Scalar/matrix numerical kernels.

Toeplitz and dense determinants in sign/log-magnitude form, Hermitian
eigenvalues, and trapezoidal quadrature for the Fourier coefficients of a
symbol, which no model calls: the tests' reference for closed forms.
Everything here is a pure function of its inputs; identical inputs give
bit-identical outputs within one build.

Conventions:
  * a_n = (1/2pi) int_0^{2pi} e^{i n theta} phi(theta) dtheta, estimated by
    the trapezoid rule on a uniform grid over [0, 2pi) -- for a periodic
    integrand this is the endpoint-free rectangle sum, spectrally accurate
    for smooth symbols.
  * A symbol is a vectorized callable theta-array -> complex array.
  * Toeplitz matrices are M[i, j] = a_{i-j+shift}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError


@dataclass(frozen=True)
class ToeplitzSequence:
    """Indexed coefficients a_n for n in [n_min, n_min + len(values) - 1]."""

    n_min: int
    values: np.ndarray  # real or complex, read-only by convention

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.values) - 1

    def __contains__(self, n: int) -> bool:
        return self.n_min <= n <= self.n_max

    def coefficient(self, n: int) -> complex:
        if n not in self:
            raise ValueError(
                f"index {n} outside covered range [{self.n_min}, {self.n_max}]"
            )
        return complex(self.values[n - self.n_min])


def fourier_window(
    symbol,
    n_max: int,
    grid_points: int = 4096,
    tol: float = 1e-10,
    max_points: int = 1 << 20,
) -> ToeplitzSequence:
    """All coefficients a_n for |n| <= n_max by trapezoid sums on grids
    doubled from `grid_points` until they settle; the tests' reference.

    Per stage the full window comes from a single inverse FFT of the symbol
    samples (identical to the per-n trapezoid sums up to rounding).  Each
    coefficient is frozen at the first doubling at which its own estimate
    moved by less than `tol`, so the value assigned to a given n does not
    depend on how wide a window was requested.
    """
    if grid_points < 16 or grid_points & (grid_points - 1):
        raise ValueError("grid_points must be a power of two >= 16")
    m = grid_points
    while m < 4 * (n_max + 1):
        m *= 2
    if m > max_points:
        raise ValueError(f"window |n| <= {n_max} exceeds the resolution cap")
    ns = np.arange(-n_max, n_max + 1)

    def stage(points):
        theta = 2.0 * np.pi * np.arange(points) / points
        coeffs = np.fft.ifft(np.asarray(symbol(theta), dtype=complex))
        return coeffs[ns % points]

    prev = stage(m)
    frozen = np.full(len(ns), np.nan, dtype=complex)
    done = np.zeros(len(ns), dtype=bool)
    while 2 * m <= max_points:
        cur = stage(2 * m)
        newly = ~done & (np.abs(cur - prev) < tol)
        frozen[newly] = cur[newly]
        done |= newly
        if done.all():
            return ToeplitzSequence(-n_max, frozen)
        prev = cur
        m *= 2
    bad = ns[~done]
    raise ConvergenceError(
        f"coefficients {bad.tolist()} did not converge below {tol} "
        f"within {max_points} grid points",
        estimates=(prev[~done], None),
    )


def toeplitz_determinant(seq: ToeplitzSequence, dim: int, row_shift: int = 0) -> float:
    """det of M[i, j] = a_{i-j+row_shift} for i, j in [0, dim).

    Computed in sign/log-magnitude form (pivoted LU underneath) so deep
    sub-unit diagonals do not underflow before the final exponentiation.
    The imaginary residue must stay below 1e-8 * max(1, |det|); the real
    part is returned.
    """
    _check_window(seq.n_min, seq.n_max, dim, row_shift)
    idx = np.subtract.outer(np.arange(dim), np.arange(dim)) + row_shift - seq.n_min
    matrix = seq.values[idx]
    sign, logabs = np.linalg.slogdet(matrix)
    det = sign * np.exp(logabs)
    if abs(det.imag) > 1e-8 * max(1.0, abs(det)):
        raise ValueError(
            f"determinant imaginary residue {det.imag:.3e} exceeds tolerance"
        )
    return float(det.real)


def toeplitz_determinants(windows, n_min: int, dim: int, row_shift: int = 0) -> np.ndarray:
    """toeplitz_determinant for each row of the real 2-D `windows`, whose
    row k holds a_n for n = n_min, n_min + 1, ...: one stacked slogdet over
    a zero-copy strided view whose element (k, i, j) is
    windows[k, i - j + row_shift - n_min], never a (rows, dim, dim) copy.
    """
    _check_window(n_min, n_min + windows.shape[1] - 1, dim, row_shift)
    row, col = windows.strides
    stack = np.lib.stride_tricks.as_strided(
        windows[:, row_shift - n_min:], shape=(len(windows), dim, dim),
        strides=(row, col, -col), writeable=False,
    )
    sign, logabs = np.linalg.slogdet(stack)
    return sign * np.exp(logabs)


def _check_window(n_min, n_max, dim, row_shift) -> None:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    lo, hi = row_shift - (dim - 1), row_shift + (dim - 1)
    if lo < n_min or hi > n_max:
        raise ValueError(
            f"sequence covers [{n_min}, {n_max}] but the "
            f"{dim}x{dim} matrix needs [{lo}, {hi}]"
        )


def dense_determinant(matrix: np.ndarray) -> complex:
    """Determinant of a square matrix (dim <= 64) by pivoted factorization."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if matrix.shape[0] > 64:
        raise ValueError("dense_determinant is capped at dim 64")
    return complex(np.linalg.det(matrix.astype(complex)))


HERMITICITY_TOL = 1e-10


def hermitian_eigenvalues(matrix: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    Rejects inputs whose Hermiticity residual max|M - M^dagger| exceeds
    `tol`.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    residual = np.max(np.abs(matrix - matrix.conj().T))
    if residual > tol:
        raise ValueError(f"Hermiticity residual {residual:.3e} exceeds {tol}")
    return np.linalg.eigvalsh(matrix)

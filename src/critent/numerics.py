"""Scalar/matrix numerical kernels.

Toeplitz determinants in sign/log-magnitude form (toeplitz_determinant,
the one determinant function: one window or a stack of them), Hermitian
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
  * A coefficient window is a plain array of a_n for |n| <= n_max, with
    a_n at index n + n_max; its width 2 n_max + 1 fixes n_max.
  * Toeplitz matrices are M[i, j] = a_{i-j+shift}.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError


def fourier_window(
    symbol,
    n_max: int,
    grid_points: int = 4096,
    tol: float = 1e-10,
    max_points: int = 1 << 20,
) -> np.ndarray:
    """All coefficients a_n for |n| <= n_max, a complex array with a_n at
    index n + n_max, by trapezoid sums on grids doubled from `grid_points`
    until they settle; the tests' reference.

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
            return frozen
        prev = cur
        m *= 2
    bad = ns[~done]
    raise ConvergenceError(
        f"coefficients {bad.tolist()} did not converge below {tol} "
        f"within {max_points} grid points",
        estimates=(prev[~done], None),
    )


def toeplitz_determinant(windows, dim: int, row_shift: int | range = 0):
    """det of M[i, j] = a_{i-j+row_shift} for i, j in [0, dim), from a real
    window of a_n for |n| <= n_max at index n + n_max (width 2 n_max + 1):
    a float for one window, an array over the rows of a 2-D stack of
    windows.  One slogdet over a zero-copy strided view whose element
    (k, i, j) is windows[k, i - j + row_shift + n_max], never a
    (rows, dim, dim) copy.  A range of shifts is one call too, over a view
    with a leading axis s for the shift row_shift[s]; the result then has
    that leading axis.  Sign/log-magnitude form (pivoted LU underneath)
    keeps deep sub-unit diagonals from underflowing before the final
    exponentiation.
    """
    shifts = row_shift if isinstance(row_shift, range) else range(row_shift, row_shift + 1)
    stack = np.atleast_2d(windows)
    n_max = (stack.shape[1] - 1) // 2
    if dim < 1:
        raise ValueError("dim must be >= 1")
    lo, hi = min(shifts) - (dim - 1), max(shifts) + (dim - 1)
    if lo < -n_max or hi > n_max:
        raise ValueError(f"window covers [{-n_max}, {n_max}] but the "
                         f"{dim}x{dim} matrix needs [{lo}, {hi}]")
    row, col = stack.strides
    view = np.lib.stride_tricks.as_strided(
        stack[:, shifts.start + n_max:], shape=(len(shifts), len(stack), dim, dim),
        strides=(shifts.step * col, row, col, -col), writeable=False,
    )
    sign, logabs = np.linalg.slogdet(view if isinstance(row_shift, range) else view[0])
    values = sign * np.exp(logabs)
    if np.ndim(windows) == 2:
        return values
    return values[..., 0] if isinstance(row_shift, range) else float(values[0])


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

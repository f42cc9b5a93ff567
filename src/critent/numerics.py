"""Scalar/matrix numerical kernels.

Toeplitz determinants in sign/log-magnitude form (toeplitz_determinant,
the one determinant function: a stack of windows at one shift, with every
requested leading minor from one Levinson recursion), and trapezoidal
quadrature for the Fourier coefficients of a symbol, which no model calls:
the tests' reference for closed forms.
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


def toeplitz_determinant(windows, dim: int, row_shift: int = 0, *, sizes):
    """Leading minors of M[i, j] = a_{i-j+row_shift}, i, j in [0, dim), for
    each row of a 2-D stack of real windows of a_n for |n| <= n_max at
    index n + n_max (width 2 n_max + 1): a (rows, sizes) array whose
    column j is the k x k minor for k = sizes[j], each k in [1, dim].
    Every model passes dim = max(sizes); dim stays a parameter because
    the benchmark's per-layer hook (perfbench/layers.py) counts work
    from it.

    One nonsymmetric Levinson recursion over the whole stack
    (Trench, J. SIAM 12, 515 (1964)) gives every leading minor in
    O(rows dim^2) as the product of its pivots, in sign/log-magnitude form
    so that deep sub-unit minors do not underflow before the final
    exponentiation.  The k x k minor of a row is the same float whatever
    dim and whichever rows share the stack.  A row whose pivots are not all
    finite up to size k (a zero pivot makes the next one infinite or NaN)
    has broken down there: its minors from k on are exactly 0 where the
    minor is triangular with a zero diagonal, and pivoted-LU slogdets
    otherwise, one call per size over the rows that broke.
    """
    stack = np.asarray(windows, dtype=float)
    if stack.ndim != 2:
        raise ValueError("windows must be a 2-D stack, one window per row")
    if stack.shape[1] % 2 == 0:
        raise ValueError(f"window width {stack.shape[1]} is not odd (2 n_max + 1)")
    n_max = (stack.shape[1] - 1) // 2
    if dim < 1:
        raise ValueError("dim must be >= 1")
    lo, hi = row_shift - (dim - 1), row_shift + (dim - 1)
    if lo < -n_max or hi > n_max:
        raise ValueError(f"window covers [{-n_max}, {n_max}] but the "
                         f"{dim}x{dim} matrix needs [{lo}, {hi}]")
    ks = [int(k) for k in sizes]
    if not ks:
        raise ValueError("sizes must name at least one minor")
    if not all(1 <= k <= dim for k in ks):
        raise ValueError(f"sizes must lie in [1, {dim}]")
    # the windows reversed, one column per row; a lone row is doubled: numpy
    # (einsum too) sums a single column in another order than two or more
    # columns, which it sums term by term, and one order keeps a row's
    # minors the same in any stack
    lags = np.ascontiguousarray(np.repeat(stack, 2 if len(stack) == 1 else 1, axis=0)[:, ::-1].T)
    return _leading_minors(stack, lags, n_max + row_shift, dim, ks)


def _leading_minors(stack, lags, centre, dim, sizes):
    """(rows, sizes) leading minors of M[i, j] = t_{i-j} with t_n at
    stack[:, centre + n], which is lags[mid - n] for mid = width - 1 - centre.

    With M_k x = (p_k, 0, ..., 0), x_0 = 1, and M_k w = (0, ..., 0, p_k),
    w_{k-1} = 1, the pivot p_k = det M_k / det M_{k-1}, and bordering both
    gives p_{k+1} = p_k - e_x e_w / p_k with e_x = sum_j t_{k-j} x_j and
    e_w = sum_j t_{-1-j} w_j; x is stored from the top of its buffer and
    w from the bottom, so neither update reads a vector backwards.  Each
    dot product is one einsum pass over its (k, columns) slices, with no
    product temporary, summing term by term as (a * b).sum(axis=0) does.
    """
    width, columns = lags.shape
    mid = width - 1 - centre
    pivots = np.empty((dim, columns))
    pivots[0] = lags[mid]
    x, w = np.zeros((2, dim, columns))
    x[0] = w[-1] = 1.0
    with np.errstate(all="ignore"):  # a breakdown shows as a non-finite pivot
        for k in range(1, dim):
            e_x = np.einsum("ij,ij->j", lags[mid - k:mid], x[:k])
            e_w = np.einsum("ij,ij->j", lags[mid + 1:mid + 1 + k], w[dim - k:])
            ratio_x, ratio_w = e_x / pivots[k - 1], e_w / pivots[k - 1]
            pivots[k] = pivots[k - 1] - e_x * ratio_w
            if k + 1 < dim:
                step = ratio_w * x[:k + 1]
                x[:k + 1] -= ratio_x * w[dim - 1 - k:]
                w[dim - 1 - k:] -= step
        pivots = pivots[:, :len(stack)].T
        at = np.asarray(sizes) - 1
        logabs = np.cumsum(np.log(np.abs(pivots)), axis=1)[:, at]
        values = np.cumprod(np.sign(pivots), axis=1)[:, at] * np.exp(logabs)
    broken = ~np.logical_and.accumulate(np.isfinite(pivots), axis=1)[:, at]
    # t_n = 0 for every n in [1 - k, 0] or in [0, k - 1]: a triangular minor
    # with a zero diagonal, exactly 0 (every minor at lambda = 0); the k x k
    # minors of a row are so up to the longer run of zero t_n out from t_0
    hit = np.flatnonzero(broken.any(axis=1))
    runs = [np.logical_and.accumulate(side == 0, axis=1).sum(axis=1) for side in
            (stack[hit, centre:centre + dim], stack[hit, centre + 1 - dim:centre + 1][:, ::-1])]
    triangular = np.zeros_like(broken)
    triangular[hit] = at < np.maximum(*runs)[:, None]
    values[broken & triangular] = 0.0
    broken &= ~triangular
    for j in np.flatnonzero(broken.any(axis=0)):
        broken_j, k = np.flatnonzero(broken[:, j]), sizes[j]
        rows = stack[broken_j]
        row, col = rows.strides
        view = np.lib.stride_tricks.as_strided(
            rows[:, centre:], shape=(broken_j.size, k, k), strides=(row, col, -col))
        sign, logabs_k = np.linalg.slogdet(view)
        values[broken_j, j] = sign * np.exp(logabs_k)
    return values


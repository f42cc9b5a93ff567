"""Transverse-field Ising ring, H = -sum_j [lambda sx_j sx_{j+1} + sz_j].

Free-fermion solution on a ring of N sites (N even) at coupling lambda
(in units of the transverse field) and temperature T.  The parity sector
fixes the momentum grid: half-odd-integer multiples of 2pi/N in the even
(P = +1) sector, integers in the odd sector.  With sector "even" or "odd"
the finite-temperature formulas are the unprojected single-sector thermal
averages: the sector enters only through the momentum grid.  The
coefficients of the two grids differ by O(1/N), but the thermal states do
not: on rings of 6-10 sites at T in {0.5, 1} the default "even" route
misses the Gibbs state exp(-H/T)/Z by 0.2-0.4 at couplings >= 1.

Sector "gibbs" is that exact finite-ring Gibbs state (Lieb, Schultz and
Mattis, Ann. Phys. 16, 407 (1961); Pfeuty, Ann. Phys. 57, 79 (1970)):

    <O> = sum_s [Z_s <O>_s + p_s Z~_s <O>~_s] / sum_s [Z_s + p_s Z~_s]

over s in {NS (even grid), R (odd grid)} with p_NS = +1, p_R = -1,
Z_s = prod 2cosh(omega/T), Z~_s = prod 2sinh(omega/T) (signed
omega_0 = 1 - lambda for the R-sector phi = 0 mode), and <.>~_s the same
Wick/Toeplitz formulas with coth(omega/T) in place of tanh(omega/T).  At
T = 0 it is the even sector.

Correlations at separation r (lattice constants, r <= N/2):

    <sx_0 sx_r> = det[ a_{i-j-1} ]_{r x r}
    <sy_0 sy_r> = det[ a_{i-j+1} ]_{r x r}
    <sz_0 sz_r> = <sz>^2 - a_r a_{-r}

where a_n are the Wick-contraction coefficients below and <sz> = -a_0.
The two-site reduced state is block diagonal in the parity of the pair.

The r x r matrices of every separation are leading minors of the
largest one, so correlations evaluates a whole (couplings, separations)
grid at fixed (T, N, sector) with one coefficient_window call for all its
couplings (one inverse FFT along the momentum axis of a (couplings, N)
array; the Gibbs state: one per momentum grid, over a (2, couplings, N)
stack of plain and twisted factors) and one toeplitz_determinant call per
shift (a Levinson recursion over the stacked windows; the Gibbs state's
bordered matrices take one slogdet per separation instead).  entropies
adds one density.two_site_entropies call for the whole grid.  These two
are the only routes: the sweeps and the scaling drivers' coupling
stencils call entropies, the ED oracle's comparison calls correlations,
and magnetization_z and correlation_mi are one-point views of the grids,
so every route gives the same floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import two_site_entropies
from .numerics import toeplitz_determinant

SECTORS = ("even", "odd", "gibbs")
# at most this many bordered-matrix entries (8 MB) go into one Gibbs slogdet call
_GIBBS_BATCH_ENTRIES = 2**20


@dataclass(frozen=True)
class TfimParams:
    """One parameter point: coupling, temperature, ring size, separation,
    validated by check_grid as the one-point grid."""

    coupling: float
    temperature: float
    sites: int
    separation: int
    sector: str = "even"

    def __post_init__(self):
        check_grid([self.coupling], self.temperature, self.sites, [self.separation], self.sector)


def check_grid(couplings, temperature, sites, separations, sector="even") -> None:
    """The free-fermion side's one parameter rule, raising ValueError at
    the first failure in this order: an empty axis (couplings, then
    separations); the smallest coupling (NaN propagates to it), the
    largest coupling, the temperature, the ring size; the smallest
    separation, the sector, then the largest separation."""
    for name, axis in (("couplings", couplings), ("separations", separations)):
        if not len(axis):
            raise ValueError(f"{name} must not be empty")
    if not np.min(couplings) >= 0:
        raise ValueError("coupling must be >= 0")
    if not np.max(couplings) < np.inf:
        raise ValueError("coupling must be finite")
    if not temperature >= 0:
        raise ValueError("temperature must be >= 0")
    if sites < 4 or sites % 2:
        raise ValueError("sites must be even and >= 4")
    low, high = min(separations), max(separations)
    if not 1 <= low <= sites // 2:
        raise ValueError("separation must be in [1, sites/2]")
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}")
    if not 1 <= high <= sites // 2:
        raise ValueError("separation must be in [1, sites/2]")


def momenta(sites: int, sector: str = "even") -> np.ndarray:
    """Momentum grid 2 pi q / N; q half-odd (even sector) or integer (odd)."""
    if sites % 2:
        raise ValueError("sites must be even")
    if sector == "even":
        q = np.arange(-sites // 2, sites // 2) + 0.5
    elif sector == "odd":
        q = np.arange(-sites // 2 + 1, sites // 2 + 1).astype(float)
    else:
        raise ValueError("momentum grids exist for sectors 'even' and 'odd'")
    return 2.0 * np.pi * q / sites


def dispersion(coupling, phi) -> np.ndarray:
    """omega = sqrt(1 + lambda^2 - 2 lambda cos phi) >= |1 - lambda|, for a
    coupling or an array of them broadcast against phi."""
    if np.any(np.asarray(coupling) < 0):
        raise ValueError("coupling must be >= 0")
    return np.sqrt(1.0 + coupling**2 - 2.0 * coupling * np.cos(phi))


def _thermal_factor(coupling, temperature, phi):
    """tanh(omega/T)/omega, with the T = 0 limit tanh -> 1 taken exactly;
    a couplings column (couplings, 1) gives a (couplings, N) array."""
    omega = dispersion(coupling, phi)
    if temperature == 0:
        if np.any(omega < 1e-12):
            raise ValueError(
                "gapless momentum at T = 0 (odd sector at coupling 1)"
            )
        return 1.0 / omega
    small = omega < 1e-8
    safe = np.where(small, 1.0, omega)
    return np.where(small, 1.0 / temperature, np.tanh(safe / temperature) / safe)


def magnetization_z(coupling: float, temperature: float, sites: int,
                    sector: str = "even") -> float:
    """<sz> = (1/N) sum_phi (1 - lambda cos phi) tanh(omega/T)/omega = -a_0
    (for sector "gibbs", the Gibbs average of the four traces), from the
    one-point grid."""
    return float(correlations([coupling], temperature, sites, [1], sector)[0][0])


def coefficient_window(
    coupling,
    temperature: float,
    sites: int,
    n_max: int,
    sector: str = "even",
) -> np.ndarray:
    """a_n for |n| <= n_max, at index n + n_max, from one length-N FFT
    over the momentum grid; for a sequence of couplings, a (couplings,
    2 n_max + 1) stack from one FFT call, row k the window of coupling k
    bit for bit."""
    phi = momenta(sites, sector)
    column = np.asarray(coupling, dtype=float)[..., None]
    return _window_values(column, phi, _thermal_factor(column, temperature, phi), n_max)


def _window_values(coupling, phi, f, n_max) -> np.ndarray:
    """a_n for n = -n_max..n_max from the ascending uniform grid phi with
    thermal factor f (zero for a mode left out):

        a_n = Re (e^{i phi_0 n}/N) sum_k e^{2 pi i k n/N} (lambda e^{i phi_k} - 1) f_k,

    one inverse FFT whose entries do not depend on n_max, so a coefficient
    is the same float in every window that holds it.  f is (N,) for one
    coupling or (couplings, N) for a couplings column (couplings, 1), the
    stack taking one FFT call along its last axis; the Gibbs traces pass a
    (2, couplings, N) stack of plain and twisted factors with the column
    broadcast to (2, couplings, 1).  Every step after the
    first writes in place and f is let go before the FFT, so when the
    caller keeps no reference to f (coefficient_window) at most two complex
    f-sized arrays are alive at once: the FFT's input and
    output.  The result is a real copy, so no complex buffer outlives the
    call.
    """
    n = np.arange(-n_max, n_max + 1)
    spectrum = coupling * np.exp(1j * phi)
    spectrum -= 1.0
    spectrum *= f
    del f
    spectrum = np.fft.ifft(spectrum, axis=-1)
    window = spectrum[..., n % len(phi)]
    del spectrum  # before the multiply's buffer is taken
    window *= np.exp(1j * phi[0] * n)
    return np.ascontiguousarray(window.real)


def _log_2cosh(y):
    y = np.abs(y)
    return y + np.log1p(np.exp(-2.0 * y))


def _log_2sinh(y):
    """log(2 sinh y) for y > 0, without overflow or loss at small y."""
    return y + np.log(-np.expm1(-2.0 * y))


def _gibbs_traces(couplings, temperature, sites, n_max):
    """The four fermionic traces whose signed sum is the Gibbs state, for
    each coupling.

    For each momentum grid (even: NS, odd: R) there is the plain trace
    Tr e^{-H/T} (thermal factor tanh) and the twisted trace Tr P e^{-H/T}
    (coth); the parity projectors (1 +- P)/2 give the R twisted trace a
    minus sign.  The R grid's phi = 0 mode, whose signed energy 1 - lambda
    vanishes at lambda = 1, is zeroed in the windows b (its factor is
    masked before coth/omega can diverge): it adds the same constant c to
    every a_n, so each Wick determinant det(B + c 1 1^T) times that mode's
    factor is the bordered determinant det[[B, 1], [-gamma 1^T, alpha]]
    with alpha the mode's share of the weight and gamma = alpha c, both
    finite at lambda = 1.  A grid's plain and twisted windows of every
    coupling are one _window_values call on a (2, couplings, N) stack; the
    log-partition sums add one coupling at a time, in the order of a lone
    coupling's sum.

    Returns (log_w, alpha, gamma, windows) over (couplings, traces): trace
    i of coupling k has weight exp(log_w[k, i]) alpha[k, i], and
    windows[k, i] holds b_n for |n| <= n_max.
    """
    column = couplings[:, None]
    x = (1.0 - column) / temperature
    big, small = 1.0 + np.exp(-2.0 * abs(x)), -np.expm1(-2.0 * abs(x))
    log_z, windows = [], []
    for sector in ("even", "odd"):
        phi = momenta(sites, sector)
        kept = phi != 0.0
        omega = np.where(kept, dispersion(column, phi), 1.0)
        y = omega / temperature
        log_z += [[np.sum(v) for v in log_2(y[:, kept])] for log_2 in (_log_2cosh, _log_2sinh)]
        f = np.where(kept, [np.tanh(y) / omega, 1.0 / (np.tanh(y) * omega)], 0.0)
        windows += list(_window_values(np.broadcast_to(column, (2, *column.shape)), phi, f, n_max))
    # the R grid's phi = 0 mode's factor 2cosh(x) (plain) or -2sinh(x)
    # (twisted, with the projector's sign), scaled by e^{-|x|}, and
    # c = -tanh(x)/N or -coth(x)/N
    # C order: _gibbs_means's norm matmul rounds otherwise on a transpose
    log_w = np.stack(log_z, axis=-1)
    log_w[:, 2:] += abs(x)
    ones, zeros, sign = np.ones_like(x), np.zeros_like(x), np.sign(x)
    alpha = np.hstack([ones, ones, big, -sign * small])
    gamma = np.hstack([zeros, zeros, -sign * small / sites, big / sites])
    return log_w, alpha, gamma, np.stack(windows, axis=1)


def _gibbs_means(traces, idx):
    """Gibbs averages of the Wick determinants det[a_idx] over the couplings
    and the leading axes of the index array idx, shaped (..., d, d); indices
    point into the window n = -n_max..n_max, so a_n sits at n + n_max."""
    log_w, alpha, gamma, windows = traces
    width, d = windows.shape[-1], idx.shape[-1]
    # the border's entries 1, -gamma and alpha follow each window, so one
    # fancy index builds every bordered matrix
    padded = np.concatenate(
        [windows, np.stack([np.ones_like(alpha), -gamma, alpha], axis=-1)], axis=-1)
    border = np.pad(idx, [(0, 0)] * (idx.ndim - 2) + [(0, 1), (0, 1)], constant_values=width)
    border[..., d, :d] = width + 1
    border[..., d, d] = width + 2
    border = border.reshape(-1, d + 1, d + 1)
    # couplings per slogdet call, so that the bordered stack stays within
    # _GIBBS_BATCH_ENTRIES: one call for a default sweep (r <= 50)
    chunk = max(1, _GIBBS_BATCH_ENTRIES // (windows.shape[1] * border.size))
    sign, logdet = (np.concatenate(v) for v in zip(*(
        np.linalg.slogdet(padded[k:k + chunk][:, :, border])
        for k in range(0, len(padded), chunk))))
    scale = log_w - log_w.max(axis=1, keepdims=True)
    # the same floats in any batch: the norm is one (1 x 4) @ (4 x 1)
    # product per coupling, and the terms add trace by trace
    norm = (np.exp(scale)[:, None, :] @ alpha[:, :, None])[:, :, 0]
    terms = sign * np.exp(scale[:, :, None] + logdet)
    means = sum(np.swapaxes(terms, 0, 1)) / norm
    return means.reshape(len(windows), *idx.shape[:-2])


def _gibbs_arrays(couplings, temperature, sites, separations):
    """mz over the couplings, then gxx, gyy, gzz and czz over (couplings,
    separations) in the Gibbs state at T > 0: the four traces of every
    coupling as (couplings, 4, width) windows from one _gibbs_traces call;
    one _gibbs_means per separation for xx and yy, one for zz and one for
    mz."""
    n_max = max(separations)
    traces = _gibbs_traces(couplings, temperature, sites, n_max)
    mz = -_gibbs_means(traces, np.array([[n_max]]))
    gxx, gyy = np.transpose([
        _gibbs_means(traces, np.subtract.outer(np.arange(r), np.arange(r))
                     + n_max + np.array([-1, 1])[:, None, None])
        for r in separations
    ], (2, 1, 0))
    gzz = _gibbs_means(traces, n_max + np.multiply.outer(separations, [[0, -1], [1, 0]]))
    # a mixture of traces is not a Wick state: the connected part is a
    # difference here
    return mz, gxx, gyy, gzz, gzz - (mz * mz)[:, None]


def correlations(couplings, temperature, sites, separations, sector="even"):
    """mz over the couplings, then gxx, gyy, gzz and the connected
    czz = gzz - mz^2 over (couplings, separations).

    One coefficient_window call for the stacked windows of all couplings
    (the Gibbs route at T > 0: one _gibbs_traces call, two stacked window
    FFTs), sized for the largest separation; one determinant call per shift
    gives every separation's minor for every window (Gibbs: one bordered
    slogdet per separation for both); mz and czz by indexing (Gibbs: one
    call each).  check_grid validates the parameters, before any window
    is built.
    """
    couplings, separations = np.asarray(couplings, dtype=float), list(separations)
    check_grid(couplings, temperature, sites, separations, sector)
    if sector == "gibbs" and temperature > 0:
        return _gibbs_arrays(couplings, temperature, sites, separations)
    n_max = max(separations)
    # the Gibbs state at T = 0 is the even sector's ground state
    grid_sector = "even" if sector == "gibbs" else sector
    # row k: a_n at n + n_max for couplings[k]
    a = coefficient_window(couplings, temperature, sites, n_max, grid_sector)
    # shifts -1 and +1: two (couplings, separations) arrays of leading minors
    gxx, gyy = (toeplitz_determinant(a, n_max, row_shift=s, sizes=separations) for s in (-1, 1))
    lags = np.asarray(separations)
    mz = -a[:, n_max]
    # Wick: <sz sz> - <sz>^2 = -a_r a_{-r}, exactly, with no cancellation
    czz = -(a[:, n_max + lags] * a[:, n_max - lags])
    return mz, gxx, gyy, (mz * mz)[:, None] + czz, czz


def entropies(couplings, temperature, sites, separations, sector="even"):
    """(S_i, S_ij, MI) in bits, each over (couplings, separations): the
    correlations grid, then one two_site_entropies call for the whole
    grid."""
    mz, *rest = correlations(couplings, temperature, sites, separations, sector)
    return two_site_entropies(mz[:, None], *rest)


def correlation_mi(params: TfimParams) -> float:
    """Two-site mutual information, in bits: the one-point grid."""
    return float(entropies([params.coupling], params.temperature, params.sites,
                           [params.separation], params.sector)[2][0, 0])

"""Independent references the tests compare the library against.

None of these is on a production path: each rebuilds a quantity the
library computes in closed form or batched form, the slow direct way.
"""

import functools
import math

import mpmath
import numpy as np

from critent import exact, tfim
from critent.analysis import CSV_HEADER, UNITS_COMMENTS
from critent.density import (LN2, DensityMatrix, _plogp, _reject_negative, _weighted_g,
                             make_density_matrix, two_site_entropies)


def x_state(mz, gxx, gyy, gzz) -> DensityMatrix:
    """Dense two-site X-state with <sz> = mz on both sites: outer block
    [[u+, z-], [z-, u-]] on {uu, dd}, inner block [[w, z+], [z+, w]] on
    {ud, du}, with u+- = (1 +- 2 mz + gzz)/4, w = (1 - gzz)/4 and
    z+- = (gxx +- gyy)/4."""
    u_plus, u_minus = (1.0 + 2.0 * mz + gzz) / 4.0, (1.0 - 2.0 * mz + gzz) / 4.0
    w, z_plus, z_minus = (1.0 - gzz) / 4.0, (gxx + gyy) / 4.0, (gxx - gyy) / 4.0
    rho = np.array([
        [u_plus, 0.0, 0.0, z_minus],
        [0.0, w, z_plus, 0.0],
        [0.0, z_plus, w, 0.0],
        [z_minus, 0.0, 0.0, u_minus],
    ])
    return make_density_matrix(rho, (2, 2))


def mpmath_mi(mz, gxx, gyy, czz):
    """S_i + S_j - S_ij of the X-state with the inputs of x_state_entropies,
    each a float64 taken exactly or a 40-digit mpf, with the working
    precision raised until the difference keeps 40 significant digits."""
    with mpmath.workdps(40):
        mz, gxx, gyy, czz = (mpmath.mpf(v if isinstance(v, mpmath.mpf) else float(v))
                             for v in (mz, gxx, gyy, czz))
    magnitude = 0
    while True:
        with mpmath.workdps(40 + magnitude):
            up, dn = (1 + mz) / 2, (1 - mz) / 2
            a, b = up * up + czz / 4, dn * dn + czz / 4
            w = up * dn - czz / 4
            radius = mpmath.sqrt(((a - b) / 2) ** 2 + ((gxx - gyy) / 4) ** 2)
            spectrum = [(a + b) / 2 + radius, (a + b) / 2 - radius,
                        w + abs(gxx + gyy) / 4, w - abs(gxx + gyy) / 4]

            def entropy(ps):
                return -sum(p * mpmath.log(p) for p in ps if p > 0)

            mi = (2 * entropy([up, dn]) - entropy(spectrum)) / mpmath.log(2)
        if mi != 0 and 40 + magnitude + mpmath.log10(abs(mi)) > 45:
            return mi
        magnitude += 40


# x_state_entropies as it was before its stacked pass, one numpy call per
# block, entropy term and weighted g: the bit-for-bit reference the stacked
# kernel is held to.  It shares only the elementwise leaves with the library.

def _block(hi, lo, delta, c):
    """Eigenvalues and coherence (nats) of the 2x2 block [[hi, c], [c, lo]].

    hi >= lo and delta = (hi - lo)/2 is passed exactly.  The diagonal moves
    by e = c^2 / (hypot(delta, c) + delta) to the eigenvalues hi + e and
    lo - e, and the block's relative entropy to its own diagonal is
    hi g(e/hi) + lo g(-e/lo) + e ln(hi/lo), three non-negative terms.
    """
    denom = np.hypot(delta, c) + delta
    e = c * c / np.where(denom > 0, denom, 1.0)
    ratio = 2.0 * delta / np.where(hi + lo > 0, hi + lo, 1.0)
    positive = lo > 0
    safe_hi = np.where(positive, hi, 1.0)
    safe_lo = np.where(positive, lo, 1.0)
    ln_ratio = np.where(
        ratio < 0.5,
        2.0 * np.arctanh(np.minimum(ratio, 0.5)),
        np.log(safe_hi) - np.log(safe_lo),
    )
    coherence = (
        _weighted_g(hi, e) + _weighted_g(lo, -e)
        + np.where(positive, e * ln_ratio, 0.0)
    )
    return hi + e, lo - e, coherence


def reference_x_state_entropies(mz, gxx, gyy, czz):
    """S_i (= S_j), S_ij and MI, in bits, of two-site X-states, rowwise.

    The state has the outer block [[u+, z-], [z-, u-]] on {uu, dd} and the
    inner block [[w, z+], [z+, w]] on {ud, du}, with

        u+- = ((1 +- mz)^2 + czz)/4,  w = (1 - mz^2 - czz)/4,
        z+- = (gxx +- gyy)/4,

    and both marginals diag((1 + mz)/2, (1 - mz)/2); czz is the connected
    correlation <sz sz> - mz^2, passed as such so it is never recovered by
    cancellation.  MI is the relative entropy D(rho_ij || rho_i x rho_j):
    a diagonal part sum_k q_k g((rho_kk - q_k)/q_k) over the product
    state's diagonal q, plus one coherence part per block, all terms
    non-negative, so MI keeps its relative precision for weakly correlated
    pairs instead of being a difference of entropies of order 1.

    Inputs broadcast to common 1-d shape.  An eigenvalue of the pair or of
    a marginal below -1e-10 raises ValidationError; smaller negative dust
    counts as 0 in the entropies.
    """
    mz, gxx, gyy, czz = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (mz, gxx, gyy, czz))
    )
    up, dn = (1.0 + mz) / 2.0, (1.0 - mz) / 2.0
    q_uu, q_ud, q_dd = up * up, up * dn, dn * dn
    d = czz / 4.0
    u_plus, u_minus, w = q_uu + d, q_dd + d, q_ud - d
    out_hi, out_lo, out_coh = _block(
        np.maximum(u_plus, u_minus), np.minimum(u_plus, u_minus),
        np.abs(mz) / 2.0, (gxx - gyy) / 4.0,
    )
    in_hi, in_lo, in_coh = _block(w, w, 0.0, (gxx + gyy) / 4.0)
    spectrum = (out_hi, out_lo, in_hi, in_lo)
    _reject_negative(spectrum)
    _reject_negative((up, dn))
    # 0 - sum, not -sum: a pure state's entropy is +0, never -0
    s_i = (0.0 - (_plogp(up) + _plogp(dn))) / LN2
    s_ij = (0.0 - (_plogp(out_hi) + _plogp(out_lo) + _plogp(in_hi) + _plogp(in_lo))) / LN2
    diagonal = _weighted_g(q_uu, d) + _weighted_g(q_dd, d) + 2.0 * _weighted_g(q_ud, -d)
    mi = (diagonal + out_coh + in_coh) / LN2
    return s_i, s_ij, mi


#: the 2D Ising class's critical amplitude, e^(1/4) 2^(1/12) A_G^(-3) with A_G
#: Glaisher's constant (McCoy, Phys. Rev. 173, 531 (1968); Pfeuty, Ann. Phys.
#: 57, 79 (1970)): the diagonal G(N) ~ A N^(-1/4), and gxx(r) ~ A r^(-1/4) on
#: the critical ring
CRITICAL_AMPLITUDE = math.exp(0.25) * 2.0 ** (1.0 / 12.0) * float(mpmath.glaisher) ** -3


def weak_pair_factor(m: float) -> float:
    """K(m) = [atanh(m)/m + 1/(1 - m^2)]/2, with K(0) = 1: a pair with
    <sz> = m on both sites and only a weak gxx = g has MI = g^2 K(m)/(2 ln 2)
    (1 + O(g^2)) bits, the second order of its relative entropy."""
    return ((math.atanh(m) / m if m else 1.0) + 1.0 / (1.0 - m * m)) / 2.0


def tfim_ordered_limits(coupling: float) -> tuple[float, float]:
    """(mz_inf, m_x^2) of the infinite chain's ground state at lambda > 1:
    mz_inf = (1/pi) int_0^pi (1 - lambda cos phi)/omega dphi, the N -> inf
    limit of the momentum sum, by mpmath.quad at 30 digits, and the squared
    spontaneous magnetization m_x^2 = (1 - lambda^-2)^(1/4) (Pfeuty, Ann.
    Phys. 57, 79 (1970)), the limit of gxx(r) as r -> inf."""
    lam = mpmath.mpf(coupling)
    with mpmath.workdps(30):
        mz = mpmath.quad(lambda phi: (1 - lam * mpmath.cos(phi))
                         / mpmath.sqrt(1 + lam**2 - 2 * lam * mpmath.cos(phi)),
                         [0, mpmath.pi]) / mpmath.pi
        return float(mz), float((1 - lam**-2) ** mpmath.mpf(0.25))


def site_state(mz) -> DensityMatrix:
    """diag((1 + mz)/2, (1 - mz)/2)."""
    return make_density_matrix(np.diag([(1 + mz) / 2, (1 - mz) / 2]), (2,))


def _thermal_factor(omega, temperature):
    """tanh(omega/T)/omega, with tanh -> 1 at T = 0 and -> 1/T at omega = 0."""
    if temperature == 0:
        return 1.0 / omega
    safe = np.where(omega > 0, omega, 1.0)
    return np.where(omega > 0, np.tanh(safe / temperature) / safe, 1.0 / temperature)


def tfim_coefficient(coupling, temperature, sites, n, sector="even") -> float:
    """Wick coefficient a_n of the ring as the direct momentum sum

    a_n = (1/N) sum_phi cos(phi n)(lambda cos phi - 1) tanh(omega/T)/omega
        - (lambda/N) sum_phi sin(phi n) sin(phi) tanh(omega/T)/omega,

    with tanh -> 1 at T = 0 and tanh(omega/T)/omega -> 1/T at omega = 0.
    """
    phi = tfim.momenta(sites, sector)
    f = _thermal_factor(tfim.dispersion(coupling, phi), temperature)
    cos_sum = np.sum(np.cos(phi * n) * (coupling * np.cos(phi) - 1.0) * f)
    sin_sum = np.sum(np.sin(phi * n) * np.sin(phi) * f)
    return float((cos_sum - coupling * sin_sum) / sites)


def tfim_window_reference(coupling, sites, ns) -> list:
    """T = 0 even-sector Wick coefficients a_n, one 40-digit mpf per n in
    ns, as the momentum sum over the half-odd grid phi = 2 pi (k + 1/2)/N

        a_n = (1/N) sum_phi [lambda cos phi (n + 1) - cos phi n] / omega,

    omega = sqrt(1 + lambda^2 - 2 lambda cos phi), every term in mpmath."""
    with mpmath.workdps(40):
        lam = mpmath.mpf(coupling)
        phis = [2 * mpmath.pi * (k - sites // 2 + mpmath.mpf(1) / 2) / sites
                for k in range(sites)]
        omegas = [mpmath.sqrt(1 + lam * lam - 2 * lam * mpmath.cos(phi)) for phi in phis]
        return [mpmath.fsum((lam * mpmath.cos(phi * (n + 1)) - mpmath.cos(phi * n)) / omega
                            for phi, omega in zip(phis, omegas)) / sites for n in ns]


def free_fermion_ground_energy(coupling, sites) -> float:
    """Even-sector vacuum energy -sum_phi omega_phi over the half-odd
    momentum grid, the ring's exact ground energy."""
    return float(-np.sum(tfim.dispersion(coupling, tfim.momenta(sites))))


def tfim_windows(couplings, temperature, sites, n_max, sector="even") -> np.ndarray:
    """(couplings, 2 n_max + 1) stack of TFIM coefficient windows built one
    coupling at a time, each from its own length-N inverse FFT of
    (lambda e^{i phi} - 1) tanh(omega/T)/omega over the momentum grid: the
    reference for the library's one-FFT-call stack."""
    phi = tfim.momenta(sites, sector)
    n = np.arange(-n_max, n_max + 1)
    rows = []
    for lam in couplings:
        f = _thermal_factor(tfim.dispersion(lam, phi), temperature)
        spectrum = np.fft.ifft((lam * np.exp(1j * phi) - 1.0) * f)
        rows.append((np.exp(1j * phi[0] * n) * spectrum[n % sites]).real)
    return np.array(rows)


def levinson_minors(windows, shift: int, dim: int) -> np.ndarray:
    """(rows, dim) leading minors of M[i, j] = a_{i-j+shift} for a stack of
    two or more windows, by the nonsymmetric Levinson recursion with each
    dot product a multiply-then-sum over (k, rows) products (numpy adds
    them term by term), the minors as signed exponentials of cumulative
    log-pivots; no pivot may vanish.  The reference for the library's
    single-pass recursion."""
    windows = np.asarray(windows, dtype=float)
    rows, centre = len(windows), (windows.shape[1] - 1) // 2 + shift

    def lag(n):
        return windows[:, centre + n]

    zero = np.zeros((1, rows))
    x = w = np.ones((1, rows))
    pivots = [lag(0)]
    for k in range(1, dim):
        e_x = (np.array([lag(k - j) for j in range(k)]) * x).sum(axis=0)
        e_w = (np.array([lag(-1 - j) for j in range(k)]) * w).sum(axis=0)
        ratio_x, ratio_w = e_x / pivots[-1], e_w / pivots[-1]
        pivots.append(pivots[-1] - e_x * ratio_w)
        x, w = (np.vstack([x, zero]) - ratio_x * np.vstack([zero, w]),
                np.vstack([zero, w]) - ratio_w * np.vstack([x, zero]))
    pivots = np.array(pivots).T
    assert np.all(np.isfinite(pivots)) and np.all(pivots != 0.0)
    return np.cumprod(np.sign(pivots), axis=1) * np.exp(np.cumsum(np.log(np.abs(pivots)), axis=1))


def tfim_mi_reference(couplings, sites, separation) -> np.ndarray:
    """T = 0 even-sector MI(0, r) over the couplings from tfim_windows and
    levinson_minors: <sz> = -a_0, gxx and gyy the r x r minors of shifts
    -1 and +1, czz = -a_r a_{-r}, then the library's entropy kernel."""
    r = separation
    a = tfim_windows(couplings, 0.0, sites, r)
    mz = -a[:, r]
    gxx, gyy = (levinson_minors(a, shift, r)[:, -1:] for shift in (-1, 1))
    czz = -(a[:, 2 * r] * a[:, 0])[:, None]
    return two_site_entropies(mz[:, None], gxx, gyy, (mz * mz)[:, None] + czz, czz)[2][:, 0]


def tfim_gibbs_reference(coupling, temperature, sites, separation):
    """(mz, gxx, gyy, gzz) of the ring's Gibbs state at one point as the
    signed sum of the four Lieb-Schultz-Mattis traces, the slow direct way.

    Per momentum grid (even: NS, odd: R) the plain trace has weight
    prod 2cosh(omega/T) and factor tanh(omega/T)/omega, the twisted trace
    prod 2sinh(omega/T) and coth(omega/T)/omega, with the R grid's phi = 0
    mode kept at its signed energy omega_0 = 1 - lambda and the R twisted
    trace negated.  Each trace's window is the direct cosine sum

        a_n = (1/N) sum_phi [lambda cos(phi (n + 1)) - cos(phi n)] f(phi)

    over the full grid, its determinants dense np.linalg.det.  The
    coupling must stay away from 1 (where coth(omega_0/T) diverges) and T
    high enough that cosh(omega/T) does not overflow.
    """
    r = separation
    n = np.arange(-r, r + 1)
    idx = np.subtract.outer(np.arange(r), np.arange(r)) + r
    weights, values = [], []
    for sector, parity in (("even", 1.0), ("odd", -1.0)):
        phi = tfim.momenta(sites, sector)
        omega = np.where(phi == 0.0, 1.0 - coupling, tfim.dispersion(coupling, phi))
        y = omega / temperature
        for factor, trace, sign in ((np.tanh(y), 2.0 * np.cosh(y), 1.0),
                                    (1.0 / np.tanh(y), 2.0 * np.sinh(y), parity)):
            weights.append((sign * np.prod(np.sign(trace)), np.sum(np.log(np.abs(trace)))))
            a = (coupling * np.cos(np.outer(n + 1, phi)) - np.cos(np.outer(n, phi))) \
                @ (factor / omega) / sites
            values.append([-a[r], np.linalg.det(a[idx - 1]), np.linalg.det(a[idx + 1]),
                           a[r] ** 2 - a[2 * r] * a[0]])
    top = max(log_z for _, log_z in weights)
    w = np.array([sign * math.exp(log_z - top) for sign, log_z in weights])
    return tuple(w @ np.array(values) / w.sum())


def parity_diagonal(sites: int) -> np.ndarray:
    """Diagonal of the ring's parity P = prod_j sz_j over the computational
    basis (bit j of the index is site j, bit value 1 spin down)."""
    idx = np.arange(1 << sites)
    counts = ((idx[:, None] >> np.arange(sites)) & 1).sum(axis=1)
    return np.where(counts % 2, -1.0, 1.0)


def ed_translation_averages(sites: int, coupling: float, temperature: float):
    """exact._translation_averages with every block's work done per block:
    each target's column by np.searchsorted over the block's members, its
    phase by np.exp, the spin means and diagonal energies from the block's
    rows, k carried as a float.  The bit-for-bit reference for the
    library's per-ring tables."""
    rep, shift, period = exact._orbits(sites)
    reps = np.flatnonzero(rep == np.arange(rep.size))
    spins = 1 - 2 * ((reps[:, None] >> np.arange(sites)) & 1)
    parity = spins.prod(axis=1)
    site, seps = np.arange(sites), np.arange(1, sites // 2 + 1)[:, None]
    bonds = reps[:, None] ^ ((1 << site) | (1 << (site + 1) % sites))
    # pairs[a, r - 1, j]: representative a with spins j and j + r flipped
    pairs = reps[:, None, None] ^ ((1 << site) | (1 << (site + seps) % sites))
    zz = spins[:, None, :] * spins[:, (site + seps) % sites]  # s_j s_{j+r}

    def targets(members, flipped, k):
        # block column of each target's representative b and the factor
        # e^{ikl} (R_a / R_b)^(1/2); a target whose orbit has no momentum-k
        # state is not in the block and gets factor 0
        b = rep[flipped]
        col = np.minimum(np.searchsorted(members, b), members.size - 1)
        ratio = period[members].reshape((-1,) + (1,) * (b.ndim - 1)) / period[b]
        phase = np.exp(1j * k * shift[flipped]) * np.sqrt(ratio)
        return col, np.where(members[col] == b, phase, 0.0)

    def block(p, m):
        # rows, k = 2 pi m / N, multiplicity (k and -k) and H of block (p, k)
        rows = np.flatnonzero((parity == p) & (m * period[reps] % sites == 0))
        k = 2 * np.pi * m / sites
        col, factor = targets(reps[rows], bonds[rows], k)
        ham = np.diag(-spins[rows].sum(axis=1).astype(complex))
        np.add.at(ham, (col, np.arange(rows.size)[:, None]), -coupling * factor)
        return rows, k, 1 if 2 * m % sites == 0 else 2, ham

    momenta = range(sites // 2 + 1)
    if temperature == 0:
        even = [block(1, m) for m in momenta]
        rows, k, _, ham = even[np.argmin([np.linalg.eigvalsh(h)[0] for *_, h in even])]
        vals, vecs = np.linalg.eigh(ham)
        energy, states = vals[0], [(rows, k, vecs[:, :1], np.ones(1))]
    else:
        spectra = []  # (parity, rows, k, multiplicity, levels, vectors) per block
        for p in (1, -1):
            for m in momenta:
                rows, k, mult, ham = block(p, m)
                spectra.append((p, rows, k, mult, *np.linalg.eigh(ham)))
        energy = min(vals[0] for p, *_, vals, _ in spectra if p == 1)
        floor = min(vals[0] for *_, vals, _ in spectra)
        states = [(rows, k, vecs, mult * np.exp(-(vals - floor) / temperature))
                  for _, rows, k, mult, vals, vecs in spectra]
    norm = sum(w.sum() for *_, w in states)
    mz, gxx, gyy, gzz = 0.0, 0.0, 0.0, 0.0
    for rows, k, vecs, w in states:
        rho = (vecs * (w / norm)) @ vecs.conj().T  # the state on the block
        diagonal = rho.diagonal().real
        mz = mz + diagonal @ spins[rows].mean(axis=1)
        gzz = gzz + diagonal @ zz[rows].mean(axis=2)
        # Tr(rho O) = sum over a, j of rho[a, b_j] <b_j(k)|O|a(k)>, where
        # sy sy carries the source's sign -s_j s_{j+r} on top of sx sx
        col, factor = targets(reps[rows], pairs[rows], k)
        hop = rho[np.arange(rows.size)[:, None, None], col] * factor
        gxx = gxx + hop.sum(axis=(0, 2)).real / sites
        gyy = gyy - (hop * zz[rows]).sum(axis=(0, 2)).real / sites
    return float(mz), gxx, gyy, gzz, float(energy)


def derivative_at(f, x: float, step: float) -> float:
    """Two-point central difference of a scalar function, one point at a
    time: the reference for the library's batched stencils."""
    return (f(x + step) - f(x - step)) / (2.0 * step)


def ising_symbol(temperature):
    """The 2D Ising symbol phi(theta) = (s - e^{-i theta})/|s - e^{-i theta}|,
    s = sinh^2(2/T), as a vectorized theta-array -> complex array.

    At criticality the jump point theta = 0 evaluates to 0, the midpoint of
    the jump (the value a Fourier series converges to there); this keeps
    the trapezoid coefficients real and second-order accurate.
    """
    s = math.sinh(2.0 / temperature) ** 2

    def symbol(theta):
        z = s - np.exp(-1j * np.asarray(theta, dtype=float))
        mag = np.abs(z)
        return np.where(mag == 0.0, 0.0, z / np.where(mag == 0.0, 1.0, mag))

    return symbol


@functools.lru_cache(maxsize=None)
def ising_coefficient(temperature, n):
    """a_n from the hypergeometric closed form, a 40-digit mpf: below T_c,
    x = sinh^-2(2/T) and a_n = F_n(x); above, x = sinh^2(2/T) and
    a_n = -F_{1-n}(x), with F_n = x^n (-1/2)_n/n! 2F1(1/2, n-1/2; n+1; x^2)
    and F_{-k} = x^k (1/2)_k/k! 2F1(-1/2, k+1/2; k+1; x^2).  Cached, so a
    temperature's coefficients are computed once per test run."""
    with mpmath.workdps(40):
        t = mpmath.mpf(temperature)
        inv_s = (2 * mpmath.exp(-2 / t) / -mpmath.expm1(-4 / t)) ** 2
        x, sign = (inv_s, 1) if inv_s <= 1 else (1 / inv_s, -1)
        m = n if sign == 1 else 1 - n
        if m >= 0:
            f = x**m * mpmath.rf(-0.5, m) / mpmath.factorial(m) \
                * mpmath.hyp2f1(0.5, m - 0.5, m + 1, x * x)
        else:
            f = x**-m * mpmath.rf(0.5, -m) / mpmath.factorial(-m) \
                * mpmath.hyp2f1(-0.5, 0.5 - m, 1 - m, x * x)
        return sign * f


def ising_correlation_reference(temperature, separation):
    """<s_{0,0} s_{N,N}> as a 40-digit mpf: mpmath.det of the N x N
    Toeplitz matrix a_{i-j} of ising_coefficient's unrounded coefficients,
    so neither the coefficients nor the determinant pass through float64."""
    rows = range(separation)
    with mpmath.workdps(40):
        a = {n: ising_coefficient(temperature, n) for n in range(1 - separation, separation)}
        return mpmath.det(mpmath.matrix([[a[i - j] for j in rows] for i in rows]))


def ising_side(x: float, sign: int, y0: float, y1, count: int, start) -> np.ndarray:
    """ising2d._side one step at a time: each step's p_j, q_j, r_j from
    scalar arithmetic, then the upward step or the Miller ratio."""
    def step(j):
        return (x * (j + 0.5 * sign), (1.0 + x * x) * (j - 1) + sign * x * x,
                x * (j - 2 + 0.5 * sign))

    if start is None:
        ys = [y0, y1]
        for j in range(2, count + 1):
            p, q, r = step(j)
            ys.append((q * ys[-1] - r * ys[-2]) / p)
        return np.array(ys)
    ratios, ratio = [], 0.0
    for j in range(start + 1, 1, -1):
        p, q, r = step(j)
        ratio = r / (q - p * ratio)
        ratios.append(ratio)
    ys = y0 * np.cumprod([1.0] + ratios[::-1] + [0.0] * (count - start))
    return ys[: count + 1]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def records_csv(records) -> str:
    """analysis.records_to_csv one row and one cell at a time."""
    lines = [UNITS_COMMENTS[name] for name in sorted({r.model for r in records})
             if name in UNITS_COMMENTS]
    lines.append(CSV_HEADER)
    for rec in records:
        cells = (rec.T, rec.lam, rec.N, rec.r, rec.s_i, rec.s_j, rec.s_ij, rec.mi)
        lines.append(",".join([rec.model, *map(_cell, cells), rec.tag]))
    return "\n".join(lines) + "\n"


# |singlet> = (|ud> - |du>)/sqrt(2) in the basis uu, ud, du, dd
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def dimer_thermal_state(temperature) -> DensityMatrix:
    """Gibbs state of the dimer from its eigenprojectors and the Boltzmann
    weights of its spectrum, the singlet at -3 and the triplet at +1,
    counted from the singlet so that T = 0 is the pure singlet; dims (2, 2)."""
    triplet = 0.0 if temperature == 0 else math.exp(-(1.0 - -3.0) / temperature)
    p_s, p_t = 1.0 / (1.0 + 3.0 * triplet), triplet / (1.0 + 3.0 * triplet)
    singlet = np.outer(_SINGLET, _SINGLET)
    return make_density_matrix(p_s * singlet + p_t * (np.eye(4) - singlet), (2, 2))

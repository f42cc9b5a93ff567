"""2D classical Ising model on the square lattice (coupling = 1, no field).

Diagonal two-point function <s_{0,0} s_{N,N}> as an N x N Toeplitz
determinant whose coefficients are Fourier coefficients of the unimodular
symbol

    phi(theta) = (s - e^{-i theta}) / |s - e^{-i theta}|,   s = sinh^2(2/T).

This is the continuous branch of [(s - e^{-i theta})/(s - e^{i theta})]^{1/2}
with phi(0) = +1 below T_c and phi(0) = -1 above; the sign above T_c is fixed
by requiring <ss> > 0 (the +1 branch would negate every coefficient and make
the determinant alternate in sign with N).  With the modulus x = 1/s below
T_c and x = s above, a_n = F_n below and -F_{1-n} above, F_n being the
coefficient of z^{-n} in (1 - x/z)^{1/2} (1 - x z)^{-1/2}: complete elliptic
integrals give F_0 and F_1, a three-term recurrence every other F_n, by one
code path for every T > 0 (at T_c, a_n = 2/(pi (1 - 2n))).
coefficient_window returns them as a plain real array, a_n at index
n + n_max; the trapezoid quadrature of phi (tests/oracles.py) is the tests'
reference.

diagonal_correlations and entropies are the only routes to G and the MI:
each takes a sequence of temperatures and one of separations and gives a
(temperatures, separations) grid from one window per temperature and one
determinant call, whose Levinson recursion yields the N x N leading minor
for every N at once; one point is the grid
diagonal_correlations([T], [N])[0, 0] or entropies([T], [N], ensemble)[2][0, 0].

Separations N are in units of sqrt(2) lattice constants.  Two statistical
descriptions of the ordered phase are supported:

  * "symmetric" (default): <s> = 0; long-range order enters through the
    plateau of the two-point function at m^2.
  * "broken": <s> = m(T), the spontaneous magnetization.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from .density import CORRELATION_TOL, two_site_entropies
from .errors import ConvergenceError, ModelConsistencyError
from .numerics import toeplitz_determinant

ENSEMBLES = ("symmetric", "broken")
_TINY = math.ulp(0.0)


def critical_temperature() -> float:
    """Solution of sinh(2/T) = 1: T_c = 2/ln(1 + sqrt(2)) ~ 2.2691853."""
    return 2.0 / math.asinh(1.0)


def _modulus(temperature: float) -> tuple[float, bool]:
    """(x, T < T_c): x = sinh^-2(2/T) below T_c and sinh^2(2/T) above,
    written so that neither small nor large T can overflow."""
    if not 0 < temperature < math.inf:
        raise ValueError("temperature must be finite and > 0")
    inverse_sinh = 2.0 * math.exp(-2.0 / temperature) / -math.expm1(-4.0 / temperature)
    if inverse_sinh <= 1.0:
        return inverse_sinh * inverse_sinh, True
    return math.sinh(2.0 / temperature) ** 2, False


def magnetization(temperature: float) -> float:
    """Spontaneous magnetization per site: (1 - sinh^-4(2/T))^(1/8) below
    T_c, exactly 0 at and above."""
    x, below = _modulus(temperature)
    return ((1.0 - x) * (1.0 + x)) ** 0.125 if below else 0.0


def _agm(b: float) -> tuple[float, float]:
    """AGM(1, b) = pi/(2K(k)) and sum_n 2^(n-1) c_n^2 = 1 - E(k)/K(k), for
    the modulus k with complement b, 0 < b <= 1 (c_0 = k)."""
    a, weight, total = 1.0, 0.5, 0.5 * (1.0 - b) * (1.0 + b)
    while a - b > 1e-15 * a:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        weight *= 2.0
        total += weight * c * c
    return a, total


def _elliptic(x: float) -> tuple[float, float]:
    """(2/pi) E(x) and (2/pi) (1 - x^2) K(x) for 0 <= x <= 1.  Legendre's
    relation E = pi/(2K') + K (K' - E') leaves the K of AGM(1, x') only in
    terms that vanish at x = 1; flooring AGM arguments at the least float
    keeps K finite (~745) there, so those terms take their limit 0."""
    xp2 = (1.0 - x) * (1.0 + x)
    agm_x, sum_x = _agm(max(x, _TINY))  # pi/(2K'), (K' - E')/K'
    agm_k, _ = _agm(max(math.sqrt(xp2), _TINY))  # pi/(2K)
    return 2.0 * agm_x / math.pi + sum_x / agm_k, xp2 / agm_k


def _side(x: float, sign: int, y0: float, y1, count: int, start) -> np.ndarray:
    """y_0 .. y_count of x (j + sign/2) y_j = [(1 + x^2)(j - 1) + sign x^2]
    y_{j-1} - x (j - 2 + sign/2) y_{j-2}, solved by y_j = F_{-sign j}: run up
    from y0, y1 if start is None, else by Miller's algorithm, ratios run down
    from y_{start+1} = 0 and scaled to y0 (entries beyond start are 0).
    The step coefficients p_j and q_j are built as arrays over j down to 0,
    in the order of the steps, with the floats of scalar arithmetic; r_j is
    p_{j-2} float for float, so the list of p serves for r too."""
    j = np.arange(count + 1) if start is None else np.arange(start + 1, -1, -1)
    p_list = (x * (j + 0.5 * sign)).tolist()
    q_list = ((1.0 + x * x) * (j - 1) + sign * x * x).tolist()
    if start is None:
        ys = [y0, y1]
        for p, q, r in zip(islice(p_list, 2, None), islice(q_list, 2, None), p_list):
            ys.append((q * ys[-1] - r * ys[-2]) / p)
        return np.array(ys)
    # y_1 .. y_count need only the ratios of j = count + 1 .. 2; those above
    # are run without being stored
    steps = zip(p_list, q_list, islice(p_list, 2, None))
    ratio = 0.0
    for p, q, r in islice(steps, max(0, start - count)):
        ratio = r / (q - p * ratio)
    ratios = []
    for p, q, r in steps:
        ratio = r / (q - p * ratio)
        ratios.append(ratio)
    ys = y0 * np.cumprod([1.0] + ratios[::-1] + [0.0] * (count - start))
    return ys[: count + 1]


def coefficient_window(temperature: float, n_max: int) -> np.ndarray:
    """Fourier coefficients a_n, |n| <= n_max, in closed form; a_n sits at
    index n + n_max.

    For |ln x| < 1e-3 the recurrence runs outward from the elliptic F_0 and
    F_1; elsewhere Miller's algorithm runs inward on each side from
    ceil(38/|ln x|) + 16 (F_n < e^-38 there), scaled to F_0.  Neither choice
    depends on n_max, so every window width gives each a_n the same float.
    Breaking Parseval's bound sum a_n^2 <= 1 raises ConvergenceError.
    """
    n_max = int(n_max)
    x, below = _modulus(temperature)
    f0, k_term = _elliptic(x)
    log_x = -math.log(max(x, _TINY))
    if log_x < 1e-3:
        f1 = -(f0 - k_term) / x
        seeds, start = (f1, (2.0 * x * f0 + f1) / 3.0), None  # F_1, F_-1
    else:
        seeds, start = (None, None), math.ceil(38.0 / log_x) + 16
    pos = _side(x, -1, f0, seeds[0], n_max + 1, start)  # F_j
    neg = _side(x, 1, f0, seeds[1], n_max + 1, start)  # F_-j
    if below:
        values = np.concatenate((neg[n_max:0:-1], pos[: n_max + 1]))
    else:
        values = -np.concatenate((pos[n_max + 1:0:-1], neg[:n_max]))
    # a reduction, not values @ values: a first BLAS call maps ~0.15 MB
    total = float((values * values).sum())
    if not total <= 1.0 + 1e-12:
        raise ConvergenceError(f"coefficient window |n| <= {n_max} at T={temperature!r} "
                               f"breaks Parseval's bound: sum of a_n^2 = {total!r}")
    return values


def diagonal_correlations(temperatures, separations) -> np.ndarray:
    """<s_{0,0} s_{N,N}> over (temperatures, separations), as N x N
    Toeplitz determinants of a_{i-j}: one coefficient window per
    temperature sized for the largest N, stacked, then one determinant
    call for the leading minors of every N over every temperature.  An
    empty axis raises ValueError naming it, before any window is built; a
    value off [-1, 1] by more than density.CORRELATION_TOL raises
    ModelConsistencyError naming its T and N."""
    temperatures = list(temperatures)
    separations = [int(n) for n in separations]
    for name, axis in (("temperatures", temperatures), ("separations", separations)):
        if not axis:
            raise ValueError(f"{name} must not be empty")
    if min(separations) < 1:
        raise ValueError("separation must be >= 1")
    n_max = max(separations) - 1
    windows = np.array([coefficient_window(t, n_max) for t in temperatures])
    values = toeplitz_determinant(windows, n_max + 1, sizes=separations)
    bad = np.argwhere(~(np.abs(values) <= 1.0 + CORRELATION_TOL))
    if bad.size:
        i, j = bad[0]
        raise ModelConsistencyError(f"correlation {values[i, j]:.6g} outside [-1, 1] "
                                    f"at T={temperatures[i]}, N={separations[j]}")
    return values


def entropies(temperatures, separations, ensemble: str = "symmetric"):
    """(S_i, S_ij, MI) in bits, each over (temperatures, separations): the
    leading minors of diagonal_correlations, then one
    density.two_site_entropies call for the whole grid.  The state is
    diagonal (no xx or yy correlation), so the kernel's eigenvalue check
    is a check of its diagonal; it is fed the connected correlation
    G - m^2, with m the magnetization in the broken ensemble and 0 in the
    symmetric one."""
    if ensemble not in ENSEMBLES:
        raise ValueError(f"ensemble must be one of {ENSEMBLES}")
    m = np.array([[magnetization(t) if ensemble == "broken" else 0.0] for t in temperatures])
    g = diagonal_correlations(temperatures, separations)
    return two_site_entropies(m, 0.0, 0.0, g, g - m * m)

"""2D classical Ising model on the square lattice (coupling = 1, no field).

Diagonal two-point function <s_{0,0} s_{N,N}> as an N x N Toeplitz
determinant whose coefficients are Fourier coefficients of the unimodular
symbol

    phi(theta) = (s - e^{-i theta}) / |s - e^{-i theta}|,   s = sinh^2(2/T).

This is the continuous branch of [(s - e^{-i theta})/(s - e^{i theta})]^{1/2}
with phi(0) = +1 below T_c and phi(0) = -1 above; the sign above T_c is fixed
by requiring <ss> > 0 (the +1 branch would negate every coefficient and make
the determinant alternate in sign with N).  At criticality the symbol
degenerates to the pure phase e^{i(pi - theta)/2} with a jump at theta = 0;
there the coefficients are taken in closed form, a_n = 2/(pi (1 - 2n)),
because a jump limits the trapezoid rule to O(grid^-2) and the doubling
protocol cannot reach 1e-10 for |n| > ~35 within the resolution cap.

Separations N are in units of sqrt(2) lattice constants.  Two statistical
descriptions of the ordered phase are supported:

  * "symmetric" (default): <s> = 0; long-range order enters through the
    plateau of the two-point function at m^2.
  * "broken": <s> = m(T), the spontaneous magnetization.
"""

from __future__ import annotations

import math

import numpy as np

from .density import DensityMatrix, make_density_matrix, x_state_entropies
from .errors import ModelConsistencyError, ValidationError
from .numerics import ToeplitzSequence, fourier_window, toeplitz_determinant

ENSEMBLES = ("symmetric", "broken")
_CRITICAL_S_TOL = 1e-12


def critical_temperature() -> float:
    """Solution of sinh(2/T) = 1: T_c = 2/ln(1 + sqrt(2)) ~ 2.2691853."""
    return 2.0 / math.asinh(1.0)


def magnetization(temperature: float) -> float:
    """Spontaneous magnetization per site: (1 - sinh^-4(2/T))^(1/8) below
    T_c, exactly 0 at and above."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    if temperature >= critical_temperature():
        return 0.0
    return (1.0 - math.sinh(2.0 / temperature) ** -4) ** 0.125


def _symbol_parameter(temperature: float) -> float:
    return math.sinh(2.0 / temperature) ** 2


def correlation_symbol(temperature: float):
    """Vectorized theta-array -> complex array evaluation of phi(theta).

    At criticality the jump point theta = 0 evaluates to 0, the midpoint of
    the jump (the value a Fourier series converges to there); this keeps
    the trapezoid coefficients real and second-order accurate.
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    s = _symbol_parameter(temperature)

    def symbol(theta):
        z = s - np.exp(-1j * np.asarray(theta, dtype=float))
        mag = np.abs(z)
        safe = np.where(mag == 0.0, 1.0, mag)
        return np.where(mag == 0.0, 0.0, z / safe)

    return symbol


def _critical_coefficient(n: int) -> float:
    # (1/2pi) int e^{i n theta} e^{i(pi-theta)/2} dtheta in closed form
    return 2.0 / (math.pi * (1.0 - 2.0 * n))


def coefficient_window(temperature: float, n_max: int) -> ToeplitzSequence:
    """Fourier coefficients a_n, |n| <= n_max.

    A coefficient's value does not depend on how wide a window was
    requested while the window fits the starting quadrature grid
    (n_max < 1024; see numerics.fourier_window), so one window sized for
    the largest separation serves every smaller one.
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    n_max = int(n_max)
    if abs(_symbol_parameter(temperature) - 1.0) < _CRITICAL_S_TOL:
        vals = np.array([_critical_coefficient(n) for n in range(-n_max, n_max + 1)],
                        dtype=complex)
        return ToeplitzSequence(-n_max, vals)
    return fourier_window(correlation_symbol(temperature), n_max)


def diagonal_correlations(temperature: float, separations) -> np.ndarray:
    """<s_{0,0} s_{N,N}> for each N in separations, as N x N Toeplitz
    determinants of a_{i-j} from one coefficient window."""
    separations = [int(n) for n in separations]
    if min(separations) < 1:
        raise ValueError("separation must be >= 1")
    seq = coefficient_window(temperature, max(separations) - 1)
    values = np.array([toeplitz_determinant(seq, n, row_shift=0) for n in separations])
    bad = np.flatnonzero(~((-1.0 - 1e-8 <= values) & (values <= 1.0 + 1e-8)))
    if bad.size:
        raise ModelConsistencyError(
            f"correlation {values[bad[0]]:.6g} outside [-1, 1] "
            f"at T={temperature}, N={separations[bad[0]]}"
        )
    return values


def diagonal_correlation(temperature: float, separation: int) -> float:
    """<s_{0,0} s_{N,N}> as the N x N Toeplitz determinant of a_{i-j}."""
    return float(diagonal_correlations(temperature, [separation])[0])


def _check_ensemble(ensemble: str) -> None:
    if ensemble not in ENSEMBLES:
        raise ValueError(f"ensemble must be one of {ENSEMBLES}")


def _magnetization(temperature: float, ensemble: str) -> float:
    _check_ensemble(ensemble)
    return magnetization(temperature) if ensemble == "broken" else 0.0


def _state_elements(g, m):
    """u+, u-, w = (1 + 2m + G)/4, (1 - 2m + G)/4, (1 - G)/4, each checked
    to lie in [-1e-10, 1]."""
    g = np.atleast_1d(g)
    elements = (("u+", (1.0 + 2.0 * m + g) / 4.0), ("u-", (1.0 - 2.0 * m + g) / 4.0),
                ("w", (1.0 - g) / 4.0))
    for name, val in elements:
        bad = np.flatnonzero(~((-1e-10 <= val) & (val <= 1.0)))
        if bad.size:
            raise ModelConsistencyError(
                f"element {name} = {val[bad[0]]:.6g} outside [0, 1] "
                f"(G = {g[bad[0]]:.6g}, m = {m:.6g})"
            )
    return tuple(val for _, val in elements)


def single_site_state(temperature: float, ensemble: str = "symmetric") -> DensityMatrix:
    """diag((1+m)/2, (1-m)/2); m = 0 in the symmetric ensemble."""
    m = _magnetization(temperature, ensemble)
    return make_density_matrix(np.diag([(1 + m) / 2, (1 - m) / 2]), (2,))


def two_site_state(
    temperature: float, separation: int, ensemble: str = "symmetric"
) -> DensityMatrix:
    """Classical (diagonal) two-site state diag(u+, w, w, u-).

    u+- = (1 +- 2m + G)/4 and w = (1 - G)/4, with G the diagonal
    correlation and m = 0 (symmetric) or the spontaneous magnetization
    (broken).  Its marginals equal single_site_state by construction.
    """
    m = _magnetization(temperature, ensemble)
    g = diagonal_correlation(temperature, separation)
    (u_plus,), (u_minus,), (w,) = _state_elements(g, m)
    try:
        return make_density_matrix(np.diag([u_plus, w, w, u_minus]), (2, 2))
    except ValidationError as exc:
        raise ModelConsistencyError(
            f"G = {g:.6g}, m = {m:.6g} gave an invalid state: {exc}"
        ) from exc


def entropies(temperature: float, separations, ensemble: str = "symmetric"):
    """(S_i, S_ij, MI) in bits as arrays over the separations, from one
    coefficient window and the closed-form X-state kernel fed the connected
    correlation G - m^2."""
    m = _magnetization(temperature, ensemble)
    g = diagonal_correlations(temperature, separations)
    _state_elements(g, m)
    return x_state_entropies(m, 0.0, 0.0, g - m * m)


def correlation_mi(
    temperature: float, separation: int, ensemble: str = "symmetric"
) -> float:
    """Two-site mutual information, in bits."""
    _, _, mi = entropies(temperature, [separation], ensemble)
    return float(mi[0])


def expansion_mi(temperature: float, separation: int) -> float:
    """Small-correlation expansion (G^2/2 - G m^2)/ln 2, in bits.

    Diagnostic companion to the exact MI: agrees with it to relative
    O(G^2) when the state is near a product state and both m-terms are
    evaluated with the spontaneous magnetization.
    """
    g = diagonal_correlation(temperature, separation)
    m = magnetization(temperature)
    return (0.5 * g * g - g * m * m) / math.log(2.0)

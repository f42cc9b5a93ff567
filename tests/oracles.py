"""Independent references the tests compare the library against.

None of these is on a production path: each rebuilds a quantity the
library computes in closed form or batched form, the slow direct way.
"""

import math

import numpy as np

from critent import dimer, tfim
from critent.density import DensityMatrix, make_density_matrix


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


def site_state(mz) -> DensityMatrix:
    """diag((1 + mz)/2, (1 - mz)/2)."""
    return make_density_matrix(np.diag([(1 + mz) / 2, (1 - mz) / 2]), (2,))


def tfim_coefficient(coupling, temperature, sites, n, sector="even") -> float:
    """Wick coefficient a_n of the ring as the direct momentum sum

    a_n = (1/N) sum_phi cos(phi n)(lambda cos phi - 1) tanh(omega/T)/omega
        - (lambda/N) sum_phi sin(phi n) sin(phi) tanh(omega/T)/omega,

    with tanh -> 1 at T = 0 and tanh(omega/T)/omega -> 1/T at omega = 0.
    """
    phi = tfim.momenta(sites, sector)
    omega = tfim.dispersion(coupling, phi)
    if temperature == 0:
        f = 1.0 / omega
    else:
        safe = np.where(omega > 0, omega, 1.0)
        f = np.where(omega > 0, np.tanh(safe / temperature) / safe, 1.0 / temperature)
    cos_sum = np.sum(np.cos(phi * n) * (coupling * np.cos(phi) - 1.0) * f)
    sin_sum = np.sum(np.sin(phi * n) * np.sin(phi) * f)
    return float((cos_sum - coupling * sin_sum) / sites)


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


# |singlet> = (|ud> - |du>)/sqrt(2) in the basis uu, ud, du, dd
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def dimer_thermal_state(temperature) -> DensityMatrix:
    """Gibbs state of the dimer from its eigenprojectors and Boltzmann
    weights; dims (2, 2)."""
    p_s, p_t = dimer.boltzmann_weights(temperature)
    singlet = np.outer(_SINGLET, _SINGLET)
    return make_density_matrix(p_s * singlet + p_t * (np.eye(4) - singlet), (2, 2))

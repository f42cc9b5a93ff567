"""Two-spin Heisenberg dimer, H = sigma_1 . sigma_2 (coupling = 1).

Spectrum: a singlet at energy -3 and a threefold-degenerate triplet at +1.
The thermal state is built from the eigenprojectors and Boltzmann weights,
which keeps every quantity well defined down to T = 0 (pure singlet) and
avoids large-argument overflow at small T.
"""

from __future__ import annotations

import math

import numpy as np

from . import density
from .density import DensityMatrix, make_density_matrix

# |singlet> = (|ud> - |du>)/sqrt(2) in the basis uu, ud, du, dd
_SINGLET = np.zeros(4)
_SINGLET[1] = 1.0 / math.sqrt(2.0)
_SINGLET[2] = -1.0 / math.sqrt(2.0)
_P_SINGLET = np.outer(_SINGLET, _SINGLET)
_P_TRIPLET = np.eye(4) - _P_SINGLET


def boltzmann_weights(temperature: float) -> tuple[float, float]:
    """(p_singlet, p_triplet-per-state); p_s + 3 p_t = 1.

    Stable form p_s = 1/(1 + 3 e^{-4/T}); the level splitting is 4.
    """
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0:
        return 1.0, 0.0
    x = math.exp(-4.0 / temperature)
    p_s = 1.0 / (1.0 + 3.0 * x)
    return p_s, x * p_s


def spin_correlation(temperature: float) -> float:
    """<s^a_1 s^a_2> = p_triplet - p_singlet, the same on every axis a.

    Written as p_s expm1(-4/T) so the weak high-temperature correlation
    keeps its relative precision.
    """
    if temperature == 0:
        return -1.0
    p_s, _ = boltzmann_weights(temperature)
    return p_s * math.expm1(-4.0 / temperature)


def thermal_state(temperature: float) -> DensityMatrix:
    """Gibbs state of the dimer; dims (2, 2)."""
    p_s, p_t = boltzmann_weights(temperature)
    return make_density_matrix(p_s * _P_SINGLET + p_t * _P_TRIPLET, (2, 2))


def whole_system_entropy(temperature: float) -> float:
    """Closed-form S(both spins) = -p_s log2 p_s - 3 p_t log2 p_t, in bits."""
    p_s, p_t = boltzmann_weights(temperature)
    s = 0.0
    if p_s > 0:
        s -= p_s * math.log2(p_s)
    if p_t > 0:
        s -= 3.0 * p_t * math.log2(p_t)
    return s


def mutual_information(temperature: float) -> float:
    """MI between the two spins: 2 - S(whole), in bits.

    The single-site entropies are exactly 1 bit; both marginals are
    verified to be I/2 before that shortcut is used.
    """
    rho = thermal_state(temperature)
    half = np.eye(2) / 2.0
    for site in (0, 1):
        marginal = density.partial_trace(rho, {site})
        if np.max(np.abs(marginal.matrix - half)) > 1e-12:
            raise AssertionError("dimer marginal is not maximally mixed")
    return 2.0 - whole_system_entropy(temperature)

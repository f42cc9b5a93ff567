"""Two-spin Heisenberg dimer, H = sigma_1 . sigma_2 (coupling = 1).

Spectrum: a singlet at energy -3 and a threefold-degenerate triplet at +1.
The thermal state is SU(2) invariant: <s^a_1> = 0 and <s^a_1 s^a_2> = g(T)
on every axis a, so it is the X-state with mz = 0 and gxx = gyy = gzz = g,
and every entropy comes from one density.two_site_entropies call for any
number of temperatures.  The Boltzmann weights are written so that
every quantity stays well defined down to T = 0 (pure singlet) without
large-argument overflow at small T.
"""

from __future__ import annotations

import math

import numpy as np

from .density import two_site_entropies


def boltzmann_weights(temperature: float) -> tuple[float, float]:
    """(p_singlet, p_triplet-per-state); p_s + 3 p_t = 1.

    Stable form p_s = 1/(1 + 3 e^{-4/T}); the level splitting is 4.
    """
    if not temperature >= 0:
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


def entropies(temperatures):
    """(S_i, S_ij, MI) in bits, one entry per temperature (one temperature
    or a sequence), from one two_site_entropies call with mz = 0 and
    gxx = gyy = gzz = czz = spin_correlation(T) at each T."""
    ts = [temperatures] if np.ndim(temperatures) == 0 else temperatures
    g = np.array([spin_correlation(t) for t in ts], dtype=float)
    return two_site_entropies(0.0, g, g, g, g)


def mutual_information(temperature: float) -> float:
    """MI between the two spins, in bits."""
    return float(entropies(temperature)[2][0])

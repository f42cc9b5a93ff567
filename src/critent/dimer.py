"""Two-spin Heisenberg dimer, H = sigma_1 . sigma_2 (coupling = 1).

Spectrum: a singlet at energy -3 and a threefold-degenerate triplet at +1.
The thermal state is SU(2) invariant: <s^a_1> = 0 and <s^a_1 s^a_2> = g(T)
on every axis a, so it is the X-state with mz = 0 and gxx = gyy = gzz = g,
and every entropy comes from one density.two_site_entropies call for any
number of temperatures: entropies(T)[2] is the MI.  spin_correlation
writes g from the singlet weight so that it stays well defined down to
T = 0 (pure singlet) without large-argument overflow at small T.
"""

from __future__ import annotations

import math

import numpy as np

from .density import two_site_entropies


def spin_correlation(temperature: float) -> float:
    """<s^a_1 s^a_2> = p_triplet - p_singlet, the same on every axis a.

    With the singlet weight in the stable form p_s = 1/(1 + 3 e^{-4/T})
    (the level splitting is 4), g = p_s expm1(-4/T), so the weak
    high-temperature correlation keeps its relative precision.
    """
    if not temperature >= 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0:
        return -1.0
    p_s = 1.0 / (1.0 + 3.0 * math.exp(-4.0 / temperature))
    return p_s * math.expm1(-4.0 / temperature)


def entropies(temperatures):
    """(S_i, S_ij, MI) in bits, one entry per temperature (one temperature
    or a sequence), from one two_site_entropies call with mz = 0 and
    gxx = gyy = gzz = czz = spin_correlation(T) at each T."""
    ts = [temperatures] if np.ndim(temperatures) == 0 else temperatures
    g = np.array([spin_correlation(t) for t in ts], dtype=float)
    return two_site_entropies(0.0, g, g, g, g)

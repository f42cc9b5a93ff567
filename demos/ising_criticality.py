"""2D Ising diagonal correlations and the critical mutual-information decay
===========================================================================

The diagonal two-point function is an N x N Toeplitz determinant.  Below
T_c it plateaus at the squared spontaneous magnetization, above T_c it
decays exponentially, and exactly at T_c it falls off as A N^{-1/4} with
A ~ 0.645, so the two-site mutual information decays as A^2/(2 sqrt(N) ln2).
"""

import math

import numpy as np

from critent import analysis, ising2d

tc = ising2d.critical_temperature()
print(f"critical temperature: {tc:.6f}")

print("\nT        m(T)      G(T, N=10)   MI(T, N=10)")
for t in [1.5, 2.0, tc, 2.5, 3.0]:
    m = ising2d.magnetization(t)
    (g,) = ising2d.diagonal_correlations(t, [10])
    (mi,) = ising2d.entropies(t, [10])[2]
    print(f"{t:<9.4f}{m:<10.5f}{g:<13.6f}{mi:.6f}")

# critical decay of the correlation: fit A N^p over N in [10, 100]
seps = np.arange(10, 101)
corr = ising2d.diagonal_correlations(tc, seps)
fit = analysis.power_law_fit(seps, corr)
print(f"\ncritical correlation fit: exponent {fit.coefficients[0]:.5f}, "
      f"amplitude {fit.amplitude:.5f} (expect -1/4 and ~0.645)")

# the matching mutual-information law, rescaled to a constant
print("\nN      MI * 2 sqrt(N) ln2  (expect ~0.416 = A^2)")
for n, mi in zip((50, 70, 100), ising2d.entropies(tc, (50, 70, 100))[2]):
    print(f"{n:<7d}{mi * 2 * math.sqrt(n) * math.log(2):.5f}")

# temperature derivative above T_c follows the specific-heat log law
result = analysis.ising2d_derivative_exponent("above", separation=30)
print(f"\nabove T_c: dMI/dT vs ln(T - Tc) is linear with relative residual "
      f"{result['relative_residual']:.2%}")

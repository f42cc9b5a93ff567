"""Two-spin Heisenberg dimer: mutual information against temperature
=====================================================================

The dimer is the smallest system in which the entropy of the whole differs
from the sum of its parts.  At T = 0 the ground state is the singlet and
the two spins share exactly two bits; as T grows the thermal mixture washes
the correlation out.
"""

import numpy as np

from critent import dimer

temperatures = [0.01, 0.1, 0.3, 1.0, 2.0, 5.0, 10.0, 100.0]
print("T       MI(bits)")
for t, mi in zip(temperatures, dimer.entropies(temperatures)[2]):
    print(f"{t:<8g}{mi:.6f}")

# The high-temperature tail falls off as 1/T^2 (the singlet-triplet
# splitting only enters at second order), not as 1/T.
ts = np.geomspace(50, 500, 12)
mis = dimer.entropies(ts)[2]
slope = np.polyfit(np.log(ts), np.log(mis), 1)[0]
print(f"\nlog-log slope of the tail over T in [50, 500]: {slope:.4f}")
print("series prediction: MI ~ 3/(2 ln2 T^2) (1 + 4/(3T))")

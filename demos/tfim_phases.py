"""Transverse-field Ising ring: phases, plateaus and critical scaling
=====================================================================

At T = 0 the ring is paramagnetic for coupling < 1 (mutual information
between distant spins vanishes) and ordered for coupling > 1, where a
distant pair still shares a finite amount of information.  At the critical
coupling the nearest-neighbour MI derivative grows like ln N and the
farthest-pair one like ln^3 N.
"""

from critent import analysis, tfim

print("MI(r) at N = 1000, T = 0")
print("lambda   r=1       r=5       r=20      r=50")
couplings = (0.2, 0.8, 1.0, 1.5, 2.0)
for lam, mis in zip(couplings, tfim.entropies(couplings, 0.0, 1000, (1, 5, 20, 50))[2]):
    row = "  ".join(f"{mi:.6f}" for mi in mis)
    print(f"{lam:<9g}{row}")

print("\nthermal suppression at lambda = 2, r = 20, N = 400")
for t in (0.0, 0.2, 0.5, 1.0):
    mi = tfim.entropies([2.0], t, 400, [20])[2][0, 0]
    print(f"T = {t:<5g} MI = {mi:.6f}")

# nearest-neighbour scaling at the critical coupling
nn = analysis.tfim_nn_scaling(sites_list=(64, 128, 256, 512, 1024))
slope = nn["fit"].coefficients[1]
print(f"\ndMI(0,1)/dlambda at lambda=1 fits a + b lnN with b = {slope:.4f}")

# farthest-pair scaling (heavier: determinants up to dim N/2)
far = analysis.tfim_far_scaling(sites_list=(32, 64, 128, 256, 512))
print("peak dMI(0,N/2)/dlambda against ln^3 N: b = "
      f"{far['fit'].coefficients[1]:.5f}, residual "
      f"{far['relative_residual']:.2%} (ln model {far['relative_residual_linear']:.2%})")
print("peak locations:", ", ".join(f"{x:.3f}" for x in far["peak_locations"]))

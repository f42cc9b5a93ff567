"""Free-fermion formulas against brute-force exact diagonalization
==================================================================

Every transverse-field Ising quantity in this package reduces to momentum
sums and Toeplitz determinants.  On small rings the same numbers can be
computed the hard way: build the 2^N x 2^N Hamiltonian, take the ground
state, trace out all but two spins.  At T = 0 the two routes agree to
machine precision.
"""

from critent import exact, tfim

SITES = 8
SEPARATIONS = (1, SITES // 2)
print(f"ring of {SITES} sites, T = 0\n")
print("lambda  r  quantity    free-fermion      exact-diag        |diff|")
ground_energies = {}
for lam in (0.5, 1.0, 2.0):
    mz, gxx, _, gzz, mi = tfim.correlations_and_mi(lam, 0.0, SITES, SEPARATIONS)
    ed_mz, ed_gxx, _, ed_gzz, ed_mi, ground_energies[lam] = exact.reports(
        SITES, lam, 0.0, SEPARATIONS
    )
    for k, r in enumerate(SEPARATIONS):
        pairs = [
            ("mz", mz, ed_mz),
            ("gxx", gxx[k], ed_gxx[k]),
            ("gzz", gzz[k], ed_gzz[k]),
            ("MI", mi[k], ed_mi[k]),
        ]
        for name, a, b in pairs:
            print(f"{lam:<8g}{r:<3d}{name:<12s}{a:<18.12f}{b:<18.12f}{abs(a - b):.2e}")

print(f"\nground energy (exact):        {ground_energies[1.0]:.12f}")
# the even-sector vacuum energy -sum_phi omega_phi
free_fermion = -tfim.dispersion(1.0, tfim.momenta(SITES)).sum()
print(f"ground energy (free fermion): {free_fermion:.12f}")

print("\nAt T > 0 the single-sector formulas are only an approximation to")
print("the full Gibbs state; the gap is tiny deep in the paramagnet and")
print("order 0.1 near the critical point.  The parity-projected sector")
print('"gibbs" sums the four fermionic traces and reproduces it exactly:')
for lam in (0.25, 1.0, 2.0):
    (single,) = tfim.correlations_and_mi(lam, 0.5, SITES, [2])[-1]
    (gibbs,) = tfim.correlations_and_mi(lam, 0.5, SITES, [2], sector="gibbs")[-1]
    (ed_mi,) = exact.reports(SITES, lam, 0.5, [2])[4]
    print(
        f"lambda = {lam:<5g} MI even = {single:.6f}  "
        f"MI gibbs = {gibbs:.12f}  MI exact = {ed_mi:.12f}"
    )

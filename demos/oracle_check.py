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
print(f"ring of {SITES} sites, T = 0\n")
print("lambda  r  quantity    free-fermion      exact-diag        |diff|")
for lam in (0.5, 1.0, 2.0):
    for r in (1, SITES // 2):
        params = tfim.TfimParams(
            coupling=lam, temperature=0.0, sites=SITES, separation=r
        )
        mz, gxx, _, gzz = tfim.correlations(params)
        ed_mz, ed_gxx, _, ed_gzz, ed_mi, _ = exact.observables(SITES, lam, 0.0, r)
        pairs = [
            ("mz", mz, ed_mz),
            ("gxx", gxx, ed_gxx),
            ("gzz", gzz, ed_gzz),
            ("MI", tfim.correlation_mi(params), ed_mi),
        ]
        for name, a, b in pairs:
            print(f"{lam:<8g}{r:<3d}{name:<12s}{a:<18.12f}{b:<18.12f}{abs(a - b):.2e}")

ground_energy = exact.observables(SITES, 1.0, 0.0, 1)[-1]
print(f"\nground energy (exact):        {ground_energy:.12f}")
print(f"ground energy (free fermion): {tfim.ground_energy(1.0, SITES):.12f}")

print("\nAt T > 0 the single-sector formulas are only an approximation to")
print("the full Gibbs state; the gap is tiny deep in the paramagnet and")
print("order 0.1 near the critical point.  The parity-projected sector")
print('"gibbs" sums the four fermionic traces and reproduces it exactly:')
for lam in (0.25, 1.0, 2.0):
    single = tfim.TfimParams(coupling=lam, temperature=0.5, sites=SITES, separation=2)
    gibbs = tfim.TfimParams(
        coupling=lam, temperature=0.5, sites=SITES, separation=2, sector="gibbs"
    )
    ed_mi = exact.observables(SITES, lam, 0.5, 2)[4]
    print(
        f"lambda = {lam:<5g} MI even = {tfim.correlation_mi(single):.6f}  "
        f"MI gibbs = {tfim.correlation_mi(gibbs):.12f}  MI exact = {ed_mi:.12f}"
    )

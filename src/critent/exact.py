"""Brute-force exact diagonalization of the transverse-field Ising ring.

Independent reference for the free-fermion formulas, valid for
3 <= N <= 12 (dense matrices up to 4096 x 4096).  Site j maps to bit j of
the basis index; bit value 0 is spin up in the sz basis.  The Hamiltonian
is real symmetric and commutes with the parity operator P = prod_j sz_j,
which is diagonal here with entries (-1)^(number of down spins).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import density
from .density import DensityMatrix, make_density_matrix
from .errors import DegeneracyError
from .tfim import CorrelationSet

DEGENERACY_TOL = 1e-10

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.diag([1.0, -1.0])


@dataclass(frozen=True)
class OracleReport:
    sites: int
    coupling: float
    temperature: float
    separation: int
    correlations: CorrelationSet
    mi: float
    ground_energy: float
    ground_parity: int


def build_hamiltonian(sites: int, coupling: float) -> np.ndarray:
    """H = -sum_j [coupling sx_j sx_{j+1} + sz_j] with periodic closure.

    N = 2 is rejected: the wraparound bond would double-count the single
    physical bond.
    """
    if not 3 <= sites <= 12:
        raise ValueError("sites must be in [3, 12]")
    if coupling < 0:
        raise ValueError("coupling must be >= 0")
    dim = 1 << sites
    idx = np.arange(dim)
    bits = (idx[:, None] >> np.arange(sites)) & 1
    ham = np.zeros((dim, dim))
    ham[idx, idx] = -(1 - 2 * bits).sum(axis=1).astype(float)
    for j in range(sites):
        mask = (1 << j) | (1 << ((j + 1) % sites))
        ham[idx ^ mask, idx] += -coupling
    return ham


def parity_diagonal(sites: int) -> np.ndarray:
    """Diagonal of P = prod_j sz_j over the computational basis."""
    idx = np.arange(1 << sites)
    counts = ((idx[:, None] >> np.arange(sites)) & 1).sum(axis=1)
    return np.where(counts % 2, -1.0, 1.0)


def _resolve_even(vals: np.ndarray, vecs: np.ndarray, parity: np.ndarray):
    """Lowest eigenvector, resolving near-degeneracy into even parity.

    The tolerance scales with |E0| so that solver noise at large couplings
    still groups a physically degenerate doublet.
    """
    tol = DEGENERACY_TOL * max(1.0, abs(float(vals[0])))
    group = vecs[:, np.abs(vals - vals[0]) < tol]
    if group.shape[1] == 1:
        psi = group[:, 0]
    else:
        projected = parity[:, None] * group + group  # 2 P_+ applied columnwise
        norms = np.linalg.norm(projected, axis=0)
        if np.max(norms) < 1e-8:
            raise DegeneracyError(
                "degenerate ground pair has no even-parity member"
            )
        psi = projected[:, int(np.argmax(norms))]
        psi = psi / np.linalg.norm(psi)
    return float(vals[0]), psi


def _reduced_from_vector(psi: np.ndarray, sites: int, site_a: int, site_b: int):
    """rho_{ab} and rho_a from a pure state, tracing out every other spin."""
    tensor = psi.reshape((2,) * sites)
    # axis k of the reshape corresponds to bit (sites-1-k), i.e. site sites-1-k
    ax_a, ax_b = sites - 1 - site_a, sites - 1 - site_b
    front = np.moveaxis(tensor, (ax_a, ax_b), (0, 1)).reshape(4, -1)
    rho_ab = front @ front.conj().T
    return make_density_matrix(rho_ab, (2, 2))


def _reduced_from_matrix(rho_full: np.ndarray, sites: int, site_a: int, site_b: int):
    state = DensityMatrix(rho_full, (2,) * sites)
    keep = sorted({sites - 1 - site_a, sites - 1 - site_b})
    reduced = density.partial_trace(state, keep)
    # partial_trace keeps ascending axis order; axis of site_a is the larger
    # site index reversed, so reorder to (site_a, site_b) when needed
    if (sites - 1 - site_a) != keep[0]:
        swap = reduced.matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        reduced = make_density_matrix(swap, (2, 2))
    return reduced


def observables(sites: int, coupling: float, temperature: float, separation: int) -> OracleReport:
    """Correlations, reduced states and MI for spins (0, separation).

    T = 0 uses the lowest eigenvector (even-parity member if the ground
    level is degenerate within 1e-10); T > 0 uses the full Gibbs state
    exp(-H/T)/Z.
    """
    if not 1 <= separation <= sites // 2:
        raise ValueError("separation must be in [1, sites/2]")
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    ham = build_hamiltonian(sites, coupling)
    parity = parity_diagonal(sites)
    if temperature == 0:
        import scipy.linalg  # only the lowest-levels eigensolver needs it

        k = min(4, ham.shape[0])
        vals, vecs = scipy.linalg.eigh(ham, subset_by_index=(0, k - 1))
        energy, psi = _resolve_even(vals, vecs, parity)
        rho_ab = _reduced_from_vector(psi, sites, 0, separation)
    else:
        vals, vecs = np.linalg.eigh(ham)
        energy, psi = _resolve_even(vals, vecs, parity)
        weights = np.exp(-(vals - vals[0]) / temperature)
        weights /= weights.sum()
        gibbs = (vecs * weights) @ vecs.T
        rho_ab = _reduced_from_matrix(gibbs, sites, 0, separation)
    ground_parity = int(round(psi @ (parity * psi)))
    rho_a = density.partial_trace(rho_ab, {0})
    corr = CorrelationSet(
        mz=float(np.trace(rho_a.matrix @ _SZ).real),
        gxx=float(np.trace(rho_ab.matrix @ np.kron(_SX, _SX)).real),
        gyy=float(np.trace(rho_ab.matrix @ np.kron(_SY, _SY)).real),
        gzz=float(np.trace(rho_ab.matrix @ np.kron(_SZ, _SZ)).real),
    )
    return OracleReport(
        sites=sites,
        coupling=coupling,
        temperature=temperature,
        separation=separation,
        correlations=corr,
        mi=density.mutual_information(rho_ab),
        ground_energy=energy,
        ground_parity=ground_parity,
    )

"""Brute-force exact diagonalization of the transverse-field Ising ring.

Independent reference for the free-fermion formulas, valid for
3 <= N <= 12.  Site j maps to bit j of the basis index; bit value 0 is spin
up in the sz basis.  The Hamiltonian is real symmetric and commutes with
the parity operator P = prod_j sz_j, which is diagonal here with entries
(-1)^(number of down spins), so it splits into an even and an odd block of
2^(N-1) x 2^(N-1) each (at most 2048 x 2048).  The blocks are diagonalized
once per (N, coupling, T) and serve every separation.  At T = 0 the state
is the lowest level of the even block; at T > 0 it is exp(-H/T)/Z over both
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import density
from .density import make_density_matrix
from .tfim import CorrelationSet

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


def build_hamiltonian(sites: int, coupling: float) -> np.ndarray:
    """H = -sum_j [coupling sx_j sx_{j+1} + sz_j] with periodic closure.

    N = 2 is rejected: the wraparound bond would double-count the single
    physical bond.
    """
    if not 3 <= sites <= 12:
        raise ValueError("sites must be in [3, 12]")
    if not coupling >= 0:
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


def _parity_blocks(sites: int, coupling: float, temperature: float):
    """The state as (basis indices, amplitudes U) per parity block, its
    restriction to the block being U U^T, and the even block's lowest
    energy.

    At T = 0, U is the even block's lowest eigenvector; at T > 0 the
    eigenvectors of both blocks scaled by the square roots of their
    Boltzmann weights.
    """
    ham = build_hamiltonian(sites, coupling)
    parity = parity_diagonal(sites)
    blocks = [np.flatnonzero(parity > 0)]
    if temperature > 0:
        blocks.append(np.flatnonzero(parity < 0))
    sliced = [ham[np.ix_(idx, idx)] for idx in blocks]
    del ham
    spectra = [np.linalg.eigh(block) for block in sliced]
    energy = float(spectra[0][0][0])
    if temperature == 0:
        return energy, [(blocks[0], spectra[0][1][:, :1])]
    low = min(vals[0] for vals, _ in spectra)
    weights = [np.exp(-(vals - low) / temperature) for vals, _ in spectra]
    norm = sum(w.sum() for w in weights)
    return energy, [
        (idx, vecs * np.sqrt(w / norm))
        for idx, (_, vecs), w in zip(blocks, spectra, weights)
    ]


def _pair_state(blocks, separation: int):
    """rho_{0r} of the state sum over blocks of U U^T.

    Each block is a parity eigenspace and P = sz_0 sz_r (x) the rest, so
    rho_{0r} commutes with sz_0 sz_r: an X-state.  Its diagonal sums
    sum_k U_ik^2 over the basis states i with a given (bit 0, bit r), its
    anti-diagonal sum_k U_ik U_{f(i),k} with f(i) = i ^ (1 | 1 << r), the
    state with both spins flipped.  f keeps the parity, and state j sits at
    row j >> 1 of its block (bit 0 is fixed by the parity of the rest).
    """
    mask = 1 | (1 << separation)
    q = np.arange(4)
    rho = np.zeros((4, 4))
    for idx, amps in blocks:
        pair = 2 * (idx & 1) + ((idx >> separation) & 1)
        flipped = amps[(idx ^ mask) >> 1]
        rho[q, q] += np.bincount(pair, np.einsum("ik,ik->i", amps, amps), 4)
        rho[3 - q, q] += np.bincount(pair, np.einsum("ik,ik->i", amps, flipped), 4)
    return make_density_matrix(rho, (2, 2))


def reports(
    sites: int, coupling: float, temperature: float, separations
) -> list[OracleReport]:
    """Correlations, reduced states and MI for spins (0, r), one report per
    r in separations, all from one diagonalization of the parity blocks."""
    separations = [int(r) for r in separations]
    if not all(1 <= r <= sites // 2 for r in separations):
        raise ValueError("separation must be in [1, sites/2]")
    if not temperature >= 0:
        raise ValueError("temperature must be >= 0")
    energy, blocks = _parity_blocks(sites, coupling, temperature)
    out = []
    for r in separations:
        rho_ab = _pair_state(blocks, r)
        rho_a = density.partial_trace(rho_ab, {0})
        corr = CorrelationSet(
            mz=float(np.trace(rho_a.matrix @ _SZ).real),
            gxx=float(np.trace(rho_ab.matrix @ np.kron(_SX, _SX)).real),
            gyy=float(np.trace(rho_ab.matrix @ np.kron(_SY, _SY)).real),
            gzz=float(np.trace(rho_ab.matrix @ np.kron(_SZ, _SZ)).real),
        )
        out.append(OracleReport(
            sites=sites,
            coupling=coupling,
            temperature=temperature,
            separation=r,
            correlations=corr,
            mi=density.mutual_information(rho_ab),
            ground_energy=energy,
        ))
    return out


def observables(sites: int, coupling: float, temperature: float, separation: int) -> OracleReport:
    """reports() for the single separation."""
    return reports(sites, coupling, temperature, [separation])[0]

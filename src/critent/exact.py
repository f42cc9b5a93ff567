"""Exact diagonalization of the transverse-field Ising ring on symmetry blocks.

Independent reference for the free-fermion formulas, valid for
3 <= N <= 12.  Site j maps to bit j of the basis index; bit value 0 is spin
up in the sz basis.  H = -sum_j [coupling sx_j sx_{j+1} + sz_j] commutes
with the parity P = prod_j sz_j, whose entries are (-1)^(number of down
spins), and with the translation T that moves the spin at site j to site
j + 1, so it splits into one block per parity and momentum k = 2 pi m / N
(Sandvik, AIP Conf. Proc. 1297, 135 (2010), section 4).  Block (P, k) is
spanned by the momentum states |a(k)> = (R_a^(1/2) / N) sum_{l < N}
e^{-ikl} T^l |a>: one per orbit representative a (the smallest index in its
translation orbit) of parity P whose orbit period R_a has k R_a in 2 pi Z.
A block holds about 2^N / (2N) states, 171 at N = 12, and is built from
bit operations: each flipped bond of a sends it to T^l |b> of some
representative b, which adds -coupling e^{ikl} (R_a / R_b)^(1/2) to
<b(k)|H|a(k)>; no 2^N x 2^N matrix is formed (build_hamiltonian is the
dense reference the tests compare against).  H is real, so block (P, -k)
is the complex conjugate of block (P, k), with the same levels and real
expectation values: only 0 <= k <= pi is diagonalized, and each k strictly
between counts twice.  A block's columns come from a representative ->
column array filled for the block, its phases from a table of e^{ikl} for
l < N, and its diagonal and spin means from sums taken once per ring.  At
N = 12 and T > 0 the 14 blocks take about 0.11 s on one BLAS thread, 0.085 s
of it in eigh, with a tracemalloc peak near 10 MB.  observables runs them
with numpy's bundled OpenBLAS pinned to one thread and restores the count
after, so its floats do not depend on the BLAS thread count.

At T = 0 the state is the lowest level of the even blocks (their levels by
eigvalsh, then eigh of the ground block only); at T > 0 it is exp(-H/T)/Z
over all blocks.  Both commute with T, so <s^a_0 s^a_r> is the translation
average (1/N) sum_j <s^a_j s^a_{j+r}>, which is block diagonal in momentum
and is read off each block's density matrix U W U^dagger for every r in
one pass.  rho_{0r} is the X-state fixed by (mz, gxx, gyy, gzz), and the
MI of every requested r comes from one two_site_entropies call over the
separations, with the connected part gzz - mz^2; the reduction uses nothing
from the free-fermion code.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager

import numpy as np

from .density import two_site_entropies


def check_ring(sites: int, coupling: float) -> None:
    if not 3 <= sites <= 12:
        raise ValueError("sites must be in [3, 12]")
    if not coupling >= 0:
        raise ValueError("coupling must be >= 0")
    if not coupling < np.inf:
        raise ValueError("coupling must be finite")


def build_hamiltonian(sites: int, coupling: float) -> np.ndarray:
    """H = -sum_j [coupling sx_j sx_{j+1} + sz_j] with periodic closure,
    as a dense 2^N x 2^N matrix.

    N = 2 is rejected: the wraparound bond would double-count the single
    physical bond.
    """
    check_ring(sites, coupling)
    dim = 1 << sites
    idx = np.arange(dim)
    bits = (idx[:, None] >> np.arange(sites)) & 1
    ham = np.zeros((dim, dim))
    ham[idx, idx] = -(1 - 2 * bits).sum(axis=1).astype(float)
    for j in range(sites):
        mask = (1 << j) | (1 << ((j + 1) % sites))
        ham[idx ^ mask, idx] += -coupling
    return ham


def _orbits(sites: int):
    """Representative, shift and orbit period of every basis index i, with
    i = T^shift(representative)."""
    dim = 1 << sites
    images = np.empty((sites, dim), dtype=np.int64)  # row l: T^l(i)
    images[0] = np.arange(dim)
    for l in range(1, sites):
        prev = images[l - 1]
        images[l] = ((prev << 1) | (prev >> (sites - 1))) & (dim - 1)
    first = images.argmin(axis=0)
    rep = np.take_along_axis(images, first[None], axis=0)[0]
    period = sites // (images == images[0]).sum(axis=0)
    return rep, (-first) % sites, period


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread, then give
    it back its thread count: the last digits of a block eigh move with the
    thread count (the printed gyy of N = 12, T = 0.5 at r = 5, say).  Where
    numpy bundles no libscipy_openblas (another BLAS, a source build), it
    does nothing."""
    # os.listdir, not glob: a first glob call compiles its pattern, 0.18 ms
    # against 0.01 ms for listdir on a 2-core x86-64 VM
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    found = [name for name in (os.listdir(libs) if os.path.isdir(libs) else ())
             if name.startswith("libscipy_openblas")]
    lib = ctypes.CDLL(os.path.join(libs, found[0])) if found else None
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or put is None:
        yield
        return
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _translation_averages(sites: int, coupling: float, temperature: float):
    """mz, then arrays of gxx, gyy, gzz over r = 1..N/2, as translation
    averages in the state; plus the lowest even level."""
    rep, shift, period = _orbits(sites)
    reps = np.flatnonzero(rep == np.arange(rep.size))
    spins = 1 - 2 * ((reps[:, None] >> np.arange(sites)) & 1)
    parity = spins.prod(axis=1)
    site, seps = np.arange(sites), np.arange(1, sites // 2 + 1)[:, None]
    bonds = reps[:, None] ^ ((1 << site) | (1 << (site + 1) % sites))
    # pairs[a, r - 1, j]: representative a with spins j and j + r flipped
    pairs = reps[:, None, None] ^ ((1 << site) | (1 << (site + seps) % sites))
    zz = spins[:, None, :] * spins[:, (site + seps) % sites]  # s_j s_{j+r}
    # per-ring sums that every block indexes by its rows
    energies, mean_z, mean_zz = -spins.sum(axis=1), spins.mean(axis=1), zz.mean(axis=2)

    def targets(rows, flipped, phases):
        # block column of each target's representative b and the factor
        # e^{ikl} (R_a / R_b)^(1/2), with e^{ikl} from the block's phases;
        # a target whose orbit has no momentum-k state is not in the block
        # and gets factor 0
        members, b = reps[rows], rep[flipped]
        # representative -> column; one outside the block reads column 0,
        # whose member is not that representative
        column = np.zeros(rep.size, dtype=np.intp)
        column[members] = np.arange(members.size)
        col = column[b]
        ratio = period[members].reshape((-1,) + (1,) * (b.ndim - 1)) / period[b]
        return col, np.where(members[col] == b, phases[shift[flipped]] * np.sqrt(ratio), 0.0)

    def block(p, m):
        # rows, phases e^{ikl} for l < N with k = 2 pi m / N, multiplicity
        # (k and -k) and H of block (p, k)
        rows = np.flatnonzero((parity == p) & (m * period[reps] % sites == 0))
        phases = np.exp(1j * (2 * np.pi * m / sites) * site)
        col, factor = targets(rows, bonds[rows], phases)
        ham = np.diag(energies[rows].astype(complex))
        np.add.at(ham, (col, np.arange(rows.size)[:, None]), -coupling * factor)
        return rows, phases, 1 if 2 * m % sites == 0 else 2, ham

    momenta = range(sites // 2 + 1)
    if temperature == 0:
        even = [block(1, m) for m in momenta]
        rows, phases, _, ham = even[np.argmin([np.linalg.eigvalsh(h)[0] for *_, h in even])]
        vals, vecs = np.linalg.eigh(ham)
        energy, states = vals[0], [(rows, phases, vecs[:, :1], np.ones(1))]
    else:
        spectra = []  # (parity, rows, phases, multiplicity, levels, vectors) per block
        for p in (1, -1):
            for m in momenta:
                rows, phases, mult, ham = block(p, m)
                spectra.append((p, rows, phases, mult, *np.linalg.eigh(ham)))
        energy = min(vals[0] for p, *_, vals, _ in spectra if p == 1)
        floor = min(vals[0] for *_, vals, _ in spectra)
        states = [(rows, phases, vecs, mult * np.exp(-(vals - floor) / temperature))
                  for _, rows, phases, mult, vals, vecs in spectra]
    norm = sum(w.sum() for *_, w in states)
    mz, gxx, gyy, gzz = 0.0, 0.0, 0.0, 0.0
    for rows, phases, vecs, w in states:
        rho = (vecs * (w / norm)) @ vecs.conj().T  # the state on the block
        diagonal = rho.diagonal().real
        mz = mz + diagonal @ mean_z[rows]
        gzz = gzz + diagonal @ mean_zz[rows]
        # Tr(rho O) = sum over a, j of rho[a, b_j] <b_j(k)|O|a(k)>, where
        # sy sy carries the source's sign -s_j s_{j+r} on top of sx sx
        col, factor = targets(rows, pairs[rows], phases)
        hop = rho[np.arange(rows.size)[:, None, None], col] * factor
        gxx = gxx + hop.sum(axis=(0, 2)).real / sites
        gyy = gyy - (hop * zz[rows]).sum(axis=(0, 2)).real / sites
    return float(mz), gxx, gyy, gzz, float(energy)


def observables(sites: int, coupling: float, temperature: float, separations):
    """(mz, gxx, gyy, gzz, MI, ground_energy) for spins (0, r), with gxx,
    gyy, gzz and MI as arrays over the separations, all from one
    diagonalization of the symmetry blocks, on one BLAS thread, and one
    two_site_entropies call."""
    separations = [int(r) for r in separations]
    if not all(1 <= r <= sites // 2 for r in separations):
        raise ValueError("separation must be in [1, sites/2]")
    if not temperature >= 0:
        raise ValueError("temperature must be >= 0")
    check_ring(sites, coupling)
    with _one_blas_thread():
        mz, gxx, gyy, gzz, energy = _translation_averages(sites, coupling, temperature)
    rows = np.array(separations, dtype=np.intp) - 1
    xx, yy, zz = gxx[rows], gyy[rows], gzz[rows]
    mi = two_site_entropies(mz, xx, yy, zz, zz - mz * mz)[2]
    return mz, xx, yy, zz, mi, energy

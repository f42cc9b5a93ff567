import ctypes
import glob
import itertools
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from critent import density, exact, tfim
from critent.density import DensityMatrix, make_density_matrix
from oracles import (ed_translation_averages, free_fermion_ground_energy, mpmath_mi,
                     parity_diagonal, x_state)
from test_analysis import count_calls


def observables_at(sites, coupling, temperature, separation):
    """(mz, gxx, gyy, gzz, MI, ground_energy) at one separation, as floats:
    the one-separation case of exact.observables."""
    mz, *values, energy = exact.observables(sites, coupling, temperature, [separation])
    return (mz, *(float(v[0]) for v in values), energy)


class TestBuildHamiltonian:
    def test_free_spins_diagonal(self):
        ham = exact.build_hamiltonian(4, 0.0)
        assert np.max(np.abs(ham - np.diag(np.diagonal(ham)))) == 0.0
        assert np.min(np.diagonal(ham)) == pytest.approx(-4.0)

    def test_ring_size_limits(self):
        with pytest.raises(ValueError):
            exact.build_hamiltonian(2, 1.0)
        with pytest.raises(ValueError):
            exact.build_hamiltonian(13, 1.0)

    @pytest.mark.parametrize("sites,coupling", [(3, 0.5), (4, 1.0), (6, 2.0)])
    def test_commutes_with_parity(self, sites, coupling):
        ham = exact.build_hamiltonian(sites, coupling)
        parity = parity_diagonal(sites)
        commutator = ham * parity[None, :] - parity[:, None] * ham
        assert np.max(np.abs(commutator)) < 1e-12

    def test_nan_coupling_rejected(self):
        with pytest.raises(ValueError, match="coupling must be >= 0"):
            exact.build_hamiltonian(4, float("nan"))

    @pytest.mark.parametrize("coupling, message", [
        (float("inf"), "coupling must be finite"),
        (float("-inf"), "coupling must be >= 0"),
    ])
    def test_infinite_coupling_rejected(self, coupling, message):
        with pytest.raises(ValueError, match=message):
            exact.check_ring(6, coupling)
        with pytest.raises(ValueError, match=message):
            exact.observables(6, coupling, 0.5, [1])

    def test_ground_energy_matches_free_fermions(self):
        ham = exact.build_hamiltonian(4, 1.0)
        ground = np.linalg.eigvalsh(ham)[0]
        assert ground == pytest.approx(free_fermion_ground_energy(1.0, 4), abs=1e-10)


class TestObservables:
    def test_nan_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature must be >= 0"):
            exact.observables(6, 1.0, float("nan"), [1])

    def test_infinite_temperature_is_uncorrelated(self):
        _, gxx, _, _, mi, _ = exact.observables(6, 1.0, float("inf"), [1, 2, 3])
        for xx, m in zip(gxx, mi):
            assert m == pytest.approx(0.0, abs=1e-12)
            assert xx == pytest.approx(0.0, abs=1e-12)

    def test_free_spin_point(self):
        for sep in (1, 2):
            mz, gxx, _, gzz, mi, _ = observables_at(4, 0.0, 0.0, sep)
            assert mz == pytest.approx(1.0, abs=1e-12)
            assert gzz == pytest.approx(1.0, abs=1e-12)
            assert abs(gxx) < 1e-12
            assert mi == pytest.approx(0.0, abs=1e-12)

    def test_ordered_side_plateau_with_regression_values(self):
        mz, gxx, _, _, mi, ground_energy = observables_at(10, 2.0, 0.0, 5)
        assert 0.8 <= gxx <= 1.0
        assert 0.8 <= mi <= 1.0
        # frozen regression fixtures from this implementation
        assert mz == pytest.approx(0.25896956823440204, abs=1e-9)
        assert gxx == pytest.approx(0.9303421283204826, abs=1e-9)
        assert mi == pytest.approx(0.8918326383229771, abs=1e-9)
        assert ground_energy == pytest.approx(-21.271208818695936, abs=1e-9)

    def test_deterministic_reports(self):
        first = observables_at(8, 1.0, 0.5, 2)
        second = observables_at(8, 1.0, 0.5, 2)
        assert first == second  # bit-identical floats

    def test_ground_parity_even_across_grid(self):
        # the T = 0 state is the even block's lowest level: the full
        # spectrum holds nothing lower, up to solver rounding
        for sites in (4, 6, 8):
            even = parity_diagonal(sites) > 0
            for coupling in (0.5, 1.0, 2.0, 1e4):
                ham = exact.build_hamiltonian(sites, coupling)
                lowest = np.linalg.eigvalsh(ham)[0]
                lowest_even = np.linalg.eigvalsh(ham[np.ix_(even, even)])[0]
                assert abs(lowest_even - lowest) <= 1e-10 * max(1.0, abs(lowest))

    def test_degenerate_pair_resolved_to_even(self):
        # at very strong coupling the ground doublet splits below 1e-10;
        # its even member is the cat state, one bit across the ring
        mi = observables_at(8, 1e4, 0.0, 4)[4]
        assert mi == pytest.approx(1.0, abs=1e-3)

    def test_batch_equals_single_separations(self):
        for temperature in (0.0, 0.7):
            mz, *arrays, energy = exact.observables(8, 1.3, temperature, [4, 1, 3, 2])
            batch = [(mz, *row, energy) for row in zip(*(v.tolist() for v in arrays))]
            singles = [observables_at(8, 1.3, temperature, r) for r in (4, 1, 3, 2)]
            assert batch == singles  # bit-identical floats

    def test_ring_is_one_kernel_call(self, monkeypatch):
        entropies = count_calls(monkeypatch, exact, "two_site_entropies")
        kernel = count_calls(monkeypatch, density, "x_state_entropies")
        matrices = count_calls(monkeypatch, density, "make_density_matrix")
        general = count_calls(monkeypatch, density, "mutual_information")
        assert len(exact.observables(8, 1.3, 0.5, [4, 1, 3, 2])[4]) == 4
        assert len(entropies) == 1 and len(kernel) == 1
        assert len(matrices) == 0 and len(general) == 0

    @pytest.mark.parametrize("sites", (4, 6, 8, 10, 12))
    def test_mi_matches_the_density_matrix_route(self, sites):
        # the dense X-state of each report's correlations, by eigenvalue
        # entropies of its reductions
        for coupling, temperature in itertools.product(
            (0.0, 0.3, 1.0, 1.7, 1e4), (0.0, 0.5, 2.0, float("inf"))
        ):
            seps = range(1, sites // 2 + 1)
            mz, *arrays, _ = exact.observables(sites, coupling, temperature, seps)
            for sep, gxx, gyy, gzz, mi in zip(seps, *arrays):
                expected = density.mutual_information(x_state(mz, gxx, gyy, gzz))
                where = (sites, coupling, temperature, sep)
                assert abs(mi - expected) <= 1e-12, where

    @pytest.mark.parametrize("sites,temperature,separations", [
        (10, 2.0, (4, 5)), (12, 0.5, (5, 6)), (12, 2.0, (4, 5, 6)),
    ])
    def test_weak_pairs_keep_relative_precision(self, sites, temperature, separations):
        # MI of 1.4e-10 .. 4e-6 here, where a difference of order-1
        # entropies keeps only about 1e-10 of it in absolute terms
        mz, *arrays, _ = exact.observables(sites, 0.3, temperature, separations)
        for sep, gxx, gyy, gzz, mi in zip(separations, *(v.tolist() for v in arrays)):
            with mpmath.workdps(40):
                # exact: 40 digits hold gzz - mz^2 of two doubles
                connected = mpmath.mpf(gzz) - mpmath.mpf(mz) ** 2
            reference = mpmath_mi(mz, gxx, gyy, connected)
            assert abs((mi - reference) / reference) <= 1e-14, sep

    def test_mi_nonnegative(self):
        for coupling in (0.25, 1.0, 2.0):
            for temperature in (0.0, 0.5):
                mi = observables_at(6, coupling, temperature, 3)[4]
                assert mi >= -1e-9

    def test_separation_validation(self):
        with pytest.raises(ValueError):
            exact.observables(8, 1.0, 0.0, [5])

    @pytest.mark.parametrize("sites,coupling,temperature", [
        *itertools.product((4, 6, 8, 10), (0.3, 1.0, 1.7), (0.0, 0.5, 2.0)),
        (12, 1.0, 0.5),
    ])
    def test_per_ring_tables_keep_every_float(self, sites, coupling, temperature):
        # mz, gxx, gyy, gzz and the energy bit for bit those of the route
        # that builds every block's columns, phases and spin sums per block
        ours = exact._translation_averages(sites, coupling, temperature)
        reference = ed_translation_averages(sites, coupling, temperature)
        for value, expected in zip(ours, reference, strict=True):
            assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()


def bundled_openblas():
    """numpy's bundled OpenBLAS, whose thread count the ED pins; the test
    is skipped where numpy bundles none."""
    found = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                   "numpy.libs", "libscipy_openblas*"))
    lib = ctypes.CDLL(found[0]) if found else None
    if not hasattr(lib, "scipy_openblas_set_num_threads64_"):
        pytest.skip("numpy bundles no scipy-openblas")
    return lib


class TestBlasThreads:
    """The block eigh's last digits move with the BLAS thread count, so the
    ED runs on one thread and gives the count back afterwards."""

    @pytest.mark.parametrize("fails", [False, True])
    def test_blocks_run_on_one_thread_and_the_count_is_restored(self, monkeypatch, fails):
        lib = bundled_openblas()
        threads, eigh = [], np.linalg.eigh

        def counted(a):
            threads.append(lib.scipy_openblas_get_num_threads64_())
            if fails:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(2)
        try:
            if fails:
                with pytest.raises(np.linalg.LinAlgError):
                    exact.observables(6, 1.0, 0.5, [1, 2, 3])
            else:
                exact.observables(6, 1.0, 0.5, [1, 2, 3])
            after = lib.scipy_openblas_get_num_threads64_()
        finally:
            lib.scipy_openblas_set_num_threads64_(before)
        assert threads and set(threads) == {1}
        assert after == 2

    def test_oracle_bytes_do_not_depend_on_the_thread_count(self):
        # unpinned, the r = 5 gyy difference printed ...65 at 2 threads
        # against ...649 at 1
        bundled_openblas()
        runs = [subprocess.run(
            [sys.executable, "-m", "critent.cli", "oracle", "compare", "--n", "12",
             "--lambda", "1.0", "--t", "0.5"],
            capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        ) for threads in ("1", "2")]
        assert [run.returncode for run in runs] == [3, 3]
        assert runs[1].stdout == runs[0].stdout


class TestGibbsState:
    def test_valid_density_matrix_and_energy_monotone(self):
        sites = 6
        ham = exact.build_hamiltonian(sites, 1.2)
        vals, vecs = np.linalg.eigh(ham)
        energies = []
        for temperature in (0.2, 0.5, 1.0, 2.0):
            weights = np.exp(-(vals - vals[0]) / temperature)
            weights /= weights.sum()
            gibbs = (vecs * weights) @ vecs.T
            state = make_density_matrix(gibbs, (2,) * sites)
            energies.append(float(np.trace(state.matrix @ ham).real))
        assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_finite_temperature_report_consistency(self):
        # every correlation and MI against the dense full-space reduction,
        # on odd rings and on rings with short-period orbits too (N = 4, 9)
        for sites, coupling, temperature in itertools.product(
            (3, 4, 5, 6, 7, 8, 9), (0.5, 1e4), (0.0, 0.8)
        ):
            _check_against_dense(sites, coupling, temperature, range(1, sites // 2 + 1))
        # the oracle-gibbs benchmark ring at its variant-2 point, where
        # counting the k = 0 and pi blocks twice misses its golden by 2e-3
        _check_against_dense(10, 1.045603, 0.544783, (1, 5))

    def test_memory_stays_within_the_blocks(self):
        # the full 4096^2 Hamiltonian alone takes 128 MB, the blocks about 15
        exact.observables(4, 1.0, 0.5, [1])  # lazy numpy and LAPACK set-up
        tracemalloc.start()
        try:
            exact.observables(12, 1.0, 0.5, range(1, 7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6


_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.diag([1.0, -1.0])


def _expectation(rho, op_a, op_b):
    return float(np.trace(rho.matrix @ np.kron(op_a, op_b)).real)


def _check_against_dense(sites, coupling, temperature, seps):
    """Every correlation and MI of exact.observables within 1e-12 of the dense
    full-space reduction."""
    mz, *arrays, _ = exact.observables(sites, coupling, temperature, seps)
    for sep, gxx, gyy, gzz, mi in zip(seps, *arrays):
        rho = _dense_pair_state(sites, coupling, temperature, sep)
        where = (sites, coupling, temperature, sep)
        assert abs(mz - _expectation(rho, _SZ, np.eye(2))) < 1e-12, where
        assert abs(gxx - _expectation(rho, _SX, _SX)) < 1e-12, where
        assert abs(gyy - _expectation(rho, _SY, _SY)) < 1e-12, where
        assert abs(gzz - _expectation(rho, _SZ, _SZ)) < 1e-12, where
        assert abs(mi - density.mutual_information(rho)) < 1e-12, where


def _dense_pair_state(sites, coupling, temperature, separation):
    """rho_{0r} on the full 2^N space: the Gibbs matrix of the dense
    Hamiltonian, reduced by density.partial_trace.

    At T = 0 the state is the ground state of H + (1 - P), which lifts the
    odd levels by 2 and so picks the even member where the two parity
    ground levels meet to rounding.
    """
    ham = exact.build_hamiltonian(sites, coupling)
    if temperature == 0:
        ham = ham + np.diag(1.0 - parity_diagonal(sites))
        vecs = np.linalg.eigh(ham)[1][:, :1]
        gibbs = vecs @ vecs.T
    else:
        vals, vecs = np.linalg.eigh(ham)
        weights = np.exp(-(vals - vals[0]) / temperature)
        gibbs = (vecs * (weights / weights.sum())) @ vecs.T
    state = DensityMatrix(gibbs, (2,) * sites)
    # axis k of the reshaped state is site N-1-k, and partial_trace keeps
    # the axes ascending: (site r, site 0), swapped here to (site 0, site r)
    reduced = density.partial_trace(state, [sites - 1 - separation, sites - 1])
    swapped = reduced.matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    return make_density_matrix(swapped, (2, 2))

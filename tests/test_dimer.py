import math

import numpy as np
import pytest

from critent import density, dimer
from oracles import dimer_thermal_state


def test_singlet_entropy_is_positive_zero():
    # at T = 0.1 the dimer is the singlet to double precision: S_ij = +0
    s_i, s_ij, mi = dimer.entropies([0.1])
    assert s_ij[0] == 0.0 and not np.signbit(s_ij[0])
    assert mi[0] == pytest.approx(2.0)


def dimer_hamiltonian():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sz = np.diag([1.0, -1.0])
    return sum(np.kron(s, s) for s in (sx, sy, sz)).real


def gibbs_oracle(temperature):
    """Independent construction: numerically exponentiate -H/T."""
    ham = dimer_hamiltonian()
    vals, vecs = np.linalg.eigh(ham)
    weights = np.exp(-(vals - vals.min()) / temperature)
    weights /= weights.sum()
    return (vecs * weights) @ vecs.T


class TestThermalState:
    """The reference Gibbs state the kernel's inputs are checked against."""

    def test_cold_limit_is_singlet(self):
        psi = np.zeros(4)
        psi[1], psi[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        rho = dimer_thermal_state(0.01)
        assert np.max(np.abs(rho.matrix - np.outer(psi, psi))) < 1e-6

    def test_hot_limit_is_maximally_mixed(self):
        rho = dimer_thermal_state(1e6)
        assert np.max(np.abs(rho.matrix - np.eye(4) / 4)) < 1e-6

    def test_boltzmann_eigenvalues_at_t_one(self):
        rho = dimer_thermal_state(1.0)
        eig = np.sort(np.linalg.eigvalsh(rho.matrix))
        e4 = math.exp(4.0)
        expected = np.sort([e4 / (e4 + 3)] + [1 / (e4 + 3)] * 3)
        assert np.allclose(eig, expected, atol=1e-12)

    def test_matches_matrix_exponential_oracle(self):
        for temperature in (0.3, 1.0, 4.0):
            rho = dimer_thermal_state(temperature)
            assert np.max(np.abs(rho.matrix - gibbs_oracle(temperature))) < 1e-12

    def test_exact_zero_temperature(self):
        rho = dimer_thermal_state(0.0)
        assert density.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            dimer.entropies([-0.1])

    def test_nan_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature must be >= 0"):
            dimer.spin_correlation(math.nan)
        with pytest.raises(ValueError, match="temperature must be >= 0"):
            dimer.entropies([math.nan])

    def test_infinite_temperature_is_uncorrelated(self):
        assert dimer.spin_correlation(math.inf) == 0.0
        assert dimer.entropies([math.inf])[2][0] == 0.0


def weights_then_product(temperature):
    """g(T) in two steps, the reference spin_correlation must equal float
    for float: the checked singlet weight p_s = 1/(1 + 3 e^{-4/T}), then
    p_s expm1(-4/T)."""
    if temperature == 0:
        return -1.0
    if not temperature >= 0:
        raise ValueError("temperature must be >= 0")
    x = math.exp(-4.0 / temperature)
    p_s = 1.0 / (1.0 + 3.0 * x)
    return p_s * math.expm1(-4.0 / temperature)


class TestSpinCorrelation:
    @pytest.mark.parametrize("temperature",
                             [0.0, 1e-3, 0.01, 0.3, 1.0, 4.0, 50.0, 1e6, 1e300, math.inf])
    def test_equals_weights_then_product_bit_for_bit(self, temperature):
        assert dimer.spin_correlation(temperature) == weights_then_product(temperature)

    @pytest.mark.parametrize("temperature", [-0.1, math.nan])
    def test_rejects_as_weights_then_product(self, temperature):
        with pytest.raises(ValueError) as new:
            dimer.spin_correlation(temperature)
        with pytest.raises(ValueError) as old:
            weights_then_product(temperature)
        assert str(new.value) == str(old.value) == "temperature must be >= 0"


class TestMutualInformation:
    def test_cold_limit_two_bits(self):
        assert dimer.entropies([0.01])[2][0] == pytest.approx(2.0, abs=1e-6)

    def test_hot_limit_vanishes(self):
        assert dimer.entropies([1e6])[2][0] < 1e-9

    def test_matches_generic_path(self):
        for temperature in (0.2, 1.0, 3.0):
            generic = density.mutual_information(dimer_thermal_state(temperature))
            assert dimer.entropies([temperature])[2][0] == pytest.approx(
                generic, abs=1e-12
            )

    def test_strictly_decreasing(self):
        grid = np.arange(0.1, 10.0001, 0.1)
        values = dimer.entropies(grid)[2]
        assert np.all(values[:-1] > values[1:])

    def test_marginals_maximally_mixed(self):
        for temperature in (0.05, 0.7, 5.0, 100.0):
            rho = dimer_thermal_state(temperature)
            for site in (0, 1):
                marg = density.partial_trace(rho, {site})
                assert np.max(np.abs(marg.matrix - np.eye(2) / 2)) < 1e-12
            (s_i,), _, _ = dimer.entropies([temperature])
            assert s_i == 1.0

    def test_closed_form_matches_generic_entropy(self):
        for temperature in (0.05, 0.5, 1.0, 2.0, 5.0, 50.0):
            _, (closed,), _ = dimer.entropies([temperature])
            generic = density.von_neumann_entropy(dimer_thermal_state(temperature))
            assert closed == pytest.approx(generic, abs=1e-12)


class TestBatch:
    def test_batch_equals_single_temperatures(self):
        ts = [0.0, 1e-3, 0.2, 1.0, 3.0, 47.5, 1e6]
        batch = dimer.entropies(ts)
        for k, t in enumerate(ts):
            single = dimer.entropies([t])
            assert all(v[k] == w[0] for v, w in zip(batch, single))
        assert dimer.entropies(np.array(ts))[2].tolist() == batch[2].tolist()

    def test_empty_grid_gives_empty_arrays(self):
        assert [v.shape for v in dimer.entropies([])] == [(0,)] * 3


class TestHighTemperatureTail:
    def test_slope_matches_series_oracle(self):
        # independent series oracle for the stated thermal state:
        # MI(T) = 3/(2 ln2 T^2) (1 + 4/(3T)) + O(T^-4)
        grid = np.geomspace(50.0, 500.0, 12)
        mis = dimer.entropies(grid)[2]
        oracle = 3.0 / (2.0 * math.log(2.0) * grid**2) * (1.0 + 4.0 / (3.0 * grid))
        slope_num = np.polyfit(np.log(grid), np.log(mis), 1)[0]
        slope_oracle = np.polyfit(np.log(grid), np.log(oracle), 1)[0]
        print(
            f"dimer high-T slope: fitted {slope_num:.4f}, series oracle "
            f"{slope_oracle:.4f}; a 1/T decay would give -1"
        )
        assert abs(slope_num - slope_oracle) < 0.05
        assert np.max(np.abs(oracle / mis - 1.0)) < 1e-3

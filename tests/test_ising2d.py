import math

import mpmath
import numpy as np
import pytest

from critent import density, ising2d
from critent.errors import ModelConsistencyError
from critent.numerics import fourier_window
from oracles import (ising_coefficient, ising_correlation_reference, ising_side, ising_symbol,
                     site_state, x_state)

TC = ising2d.critical_temperature()


class TestCriticalTemperature:
    def test_value(self):
        assert TC == pytest.approx(2.269185, abs=1e-6)

    def test_defining_identity(self):
        assert math.sinh(2.0 / TC) == pytest.approx(1.0, abs=1e-12)

    def test_equivalent_criterion(self):
        assert 2.0 * math.tanh(2.0 / TC) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestMagnetization:
    def test_zero_above_tc(self):
        assert ising2d.magnetization(3.0) == 0.0
        assert ising2d.magnetization(TC) == 0.0

    def test_saturates_cold(self):
        assert ising2d.magnetization(0.2) == pytest.approx(1.0, abs=1e-12)

    def test_printed_formula(self):
        direct = (1.0 - math.sinh(1.0) ** -4) ** 0.125
        assert ising2d.magnetization(2.0) == pytest.approx(direct, rel=1e-14)
        assert ising2d.magnetization(2.0) == pytest.approx(0.9113, abs=1e-4)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            ising2d.magnetization(0.0)


NEAR_TC = [TC + sign * offset for offset in (1e-9, 1e-6, 5e-4, 1e-3, 2e-3)
           for sign in (1, -1)]
# |ln x| = 0.9e-3 (outward recurrence) and 1.1e-3 (Miller), below and above
# T_c: sinh(2/T) = e^(|ln x|/2) below and e^(-|ln x|/2) above
MILLER_EDGE = [2.0 / math.asinh(math.exp(sign * log_x / 2))
               for log_x in (0.9e-3, 1.1e-3) for sign in (1, -1)]


class TestCoefficientWindow:
    @pytest.mark.parametrize("temperature",
                             [0.3, 1.0, 2.0, 3.0, 10.0, 1000.0, 1e6, TC] + NEAR_TC)
    def test_against_40_digit_closed_form(self, temperature):
        for n_max in (49, 800):
            window = ising2d.coefficient_window(temperature, n_max)
            for n in (0, 1, -1, n_max // 2, -(n_max // 2), n_max, -n_max):
                exact = float(ising_coefficient(temperature, n))
                assert abs(window[n + n_max] - exact) < 1e-13, (n_max, n)

    @pytest.mark.parametrize("sites", [50, 200])
    def test_mccoy_wu_critical_product(self, sites):
        # G(N) = (2/pi)^N prod_{l<N} (1 - 1/(4 l^2))^(l - N) at T_c
        with mpmath.workdps(40):
            exact = (2 / mpmath.pi) ** sites * mpmath.fprod(
                (1 - mpmath.mpf(1) / (4 * l * l)) ** (l - sites) for l in range(1, sites))
        assert ising2d.diagonal_correlations([TC], [sites])[0, 0] == pytest.approx(float(exact),
                                                                             rel=1e-12)

    def test_matches_quadrature_on_benchmark_grid(self):
        for temperature in np.linspace(1.5, 3.5, 21):
            closed = ising2d.coefficient_window(temperature, 49)
            quad = fourier_window(ising_symbol(temperature), 49)
            assert np.max(np.abs(closed - quad)) < 1e-14, temperature

    @pytest.mark.parametrize("temperature",
                             [0.002, 0.3, 2.0, 2.3, TC, TC + 1e-6, TC - 5e-4, TC + 2e-3, 10.0, 1e6])
    def test_entries_do_not_depend_on_width(self, temperature):
        widest = ising2d.coefficient_window(temperature, 1500)
        for n_max in (0, 1, 49, 1023):
            values = ising2d.coefficient_window(temperature, n_max)
            assert np.array_equal(values, widest[1500 - n_max:1501 + n_max]), n_max

    def test_miller_edge_straddles_the_switch(self):
        log_x = [-math.log(ising2d._modulus(t)[0]) for t in MILLER_EDGE]
        assert [v < 1e-3 for v in log_x] == [True, True, False, False]
        assert [t < TC for t in MILLER_EDGE] == [True, False, True, False]

    @pytest.mark.parametrize("temperature",
                             [0.002, 1.5, 2.0, TC, 2.5, 3.5, 1e6] + MILLER_EDGE)
    def test_bit_identical_to_per_step_recurrence(self, temperature, monkeypatch):
        widths = (0, 1, 49, 800)
        windows = [ising2d.coefficient_window(temperature, n_max) for n_max in widths]
        monkeypatch.setattr(ising2d, "_side", ising_side)
        for n_max, window in zip(widths, windows):
            reference = ising2d.coefficient_window(temperature, n_max)
            assert window.tobytes() == reference.tobytes(), n_max

    def test_small_temperature_is_a_delta(self):
        # sinh(2/T) overflows a float at T = 0.002; the modulus underflows to 0
        values = ising2d.coefficient_window(0.002, 3)
        assert np.array_equal(values, [0, 0, 0, 1, 0, 0, 0])
        assert ising2d.magnetization(0.002) == 1.0


class TestDiagonalCorrelation:
    def test_nearest_at_criticality(self):
        assert ising2d.diagonal_correlations([TC], [1])[0, 0] == pytest.approx(
            2.0 / math.pi, abs=1e-10
        )

    def test_deep_order_plateau(self):
        m2 = ising2d.magnetization(0.5) ** 2
        g = ising2d.diagonal_correlations([0.5], [10])[0, 0]
        assert m2 - 1e-12 <= g <= 1.0
        assert g == pytest.approx(m2, abs=1e-6)

    def test_high_temperature_expansion_oracle(self):
        # leading high-T behaviour of the nearest diagonal pair is
        # 2 tanh^2(1/T) (two two-bond paths); fixes sign and magnitude
        for temperature, rel_band in ((10.0, 0.03), (20.0, 0.008), (50.0, 0.0015)):
            lead = 2.0 * math.tanh(1.0 / temperature) ** 2
            g = ising2d.diagonal_correlations([temperature], [1])[0, 0]
            assert g > 0
            assert abs(g / lead - 1.0) < rel_band

    @pytest.mark.parametrize("temperature", [1.5, TC, 3.0])
    def test_monotone_nonincreasing_in_separation(self, temperature):
        values = ising2d.diagonal_correlations([temperature], range(1, 61))[0]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
        assert all(abs(v) <= 1 + 1e-8 for v in values)

    def test_separation_validation(self):
        with pytest.raises(ValueError):
            ising2d.diagonal_correlations([2.0], [0])

    def test_empty_axes_are_named(self, monkeypatch):
        # rejected before any coefficient window is built
        monkeypatch.setattr(ising2d, "coefficient_window", None)
        with pytest.raises(ValueError, match="separations must not be empty"):
            ising2d.diagonal_correlations([2.0], [])
        with pytest.raises(ValueError, match="temperatures must not be empty"):
            ising2d.diagonal_correlations([], [1])
        with pytest.raises(ValueError, match="temperatures must not be empty"):
            ising2d.entropies([], [1])
        with pytest.raises(ValueError, match="separations must not be empty"):
            ising2d.entropies([2.0], [], "broken")


# G off the 40-digit reference by more than 1e-13 relative: the minors of
# order 1e-24 and 1e-40 above T_c (measured 4.3e-7 and 0.15).  The float
# windows carry the error (their exact determinants are off as much): the
# tail a_n lose relative precision near Miller's start and are 0 past it
# (at T = 5), red until that start follows n_max
LOST_MINOR = pytest.mark.xfail(strict=True, reason="float window, ROADMAP direction 4(b)")
MINOR_POINTS = [pytest.param(t, n, marks=LOST_MINOR if (t, n) in {(3.5, 50), (5.0, 50)} else ())
                for t in (2.0, 2.5, 3.0, 3.5, 5.0) for n in (10, 30, 50)]


class TestCorrelationAgainstFortyDigitDeterminant:
    """G against mpmath.det of the 40-digit 2F1 coefficients (ROADMAP 4(a))."""

    @pytest.mark.parametrize("temperature, separation", MINOR_POINTS)
    def test_relative_precision(self, temperature, separation):
        g = ising2d.diagonal_correlations([temperature], [separation])[0, 0]
        exact = ising_correlation_reference(temperature, separation)
        assert abs(g - exact) <= 1e-13 * abs(exact)


def pair_state(temperature, separation, ensemble="symmetric"):
    """Dense two-site state built from the kernel's inputs G and m."""
    m = ising2d.magnetization(temperature) if ensemble == "broken" else 0.0
    g = ising2d.diagonal_correlations([temperature], [separation])[0, 0]
    return x_state(m, 0.0, 0.0, g)


class TestTwoSiteState:
    """The classical state diag(u+, w, w, u-) the kernel evaluates."""

    def test_symmetric_cold_limit(self):
        rho = pair_state(0.5, 12, "symmetric")
        assert np.max(np.abs(rho.matrix - np.diag([0.5, 0, 0, 0.5]))) < 1e-6
        assert ising2d.entropies([0.5], [12], "symmetric")[2][0, 0] == pytest.approx(1.0, abs=1e-5)

    def test_broken_cold_limit_is_polarized_product(self):
        rho = pair_state(0.5, 12, "broken")
        proj = np.zeros((4, 4))
        proj[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - proj)) < 1e-5
        assert ising2d.entropies([0.5], [12], "broken")[2][0, 0] < 1e-4

    def test_hot_side_is_product(self):
        rho = pair_state(3.0, 30)
        assert np.max(np.abs(rho.matrix - np.eye(4) / 4)) < 1e-6

    @pytest.mark.parametrize("ensemble", ising2d.ENSEMBLES)
    def test_marginal_consistency(self, ensemble):
        # the kernel's entropies against the dense state's, whose marginals
        # are the single-site state
        for temperature, sep in ((1.8, 3), (2.1, 7), (2.6, 4), (3.2, 2)):
            rho_ij = pair_state(temperature, sep, ensemble)
            m = ising2d.magnetization(temperature) if ensemble == "broken" else 0.0
            rho_i = site_state(m)
            for site in (0, 1):
                marg = density.partial_trace(rho_ij, {site})
                assert np.max(np.abs(marg.matrix - rho_i.matrix)) < 1e-12
            s_i, s_ij, mi = (v[0, 0] for v in ising2d.entropies([temperature], [sep], ensemble))
            assert s_i == pytest.approx(density.von_neumann_entropy(rho_i), abs=1e-12)
            assert s_ij == pytest.approx(density.von_neumann_entropy(rho_ij), abs=1e-12)
            assert mi == pytest.approx(density.mutual_information(rho_ij), abs=1e-12)

    def test_unknown_ensemble_rejected(self):
        with pytest.raises(ValueError):
            ising2d.entropies([2.0], [3], "tilted")


class TestCorrelationMi:
    def test_critical_amplitude_window(self):
        seps = (50, 75, 100)
        for sep, mi in zip(seps, ising2d.entropies([TC], seps)[2][0]):
            scaled = mi * 2.0 * math.sqrt(sep) * math.log(2.0)
            assert 0.406 <= scaled <= 0.426

    def test_decays_above_tc(self):
        assert ising2d.entropies([3.0], [30])[2][0, 0] < 1e-6

    def test_ordered_plateau(self):
        assert ising2d.entropies([1.0], [50])[2][0, 0] > 0.5

    def test_faster_than_power_decay_above_tc(self):
        mi20, mi40 = ising2d.entropies([2.5], [20, 40])[2][0]
        assert mi40 / mi20 < (40 / 20) ** -2

    def test_critical_decay_slope(self):
        seps = np.arange(20, 101, 8)
        mis = ising2d.entropies([TC], seps)[2][0]
        slope = np.polyfit(np.log(seps), np.log(mis), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.03)


def expansion_mi(temperature, separation):
    """Small-correlation expansion (G^2/2 - G m^2)/ln 2 of the MI, in bits;
    agrees with the exact MI to relative O(G^2) near a product state."""
    g = ising2d.diagonal_correlations([temperature], [separation])[0, 0]
    m = ising2d.magnetization(temperature)
    return (0.5 * g * g - g * m * m) / math.log(2.0)


class TestExpansionDiagnostic:
    def test_zero_correlation_gives_zero(self):
        # G = 0 makes the expansion vanish identically
        assert expansion_mi(50.0, 40) == pytest.approx(0.0, abs=1e-12)

    def test_matches_exact_in_small_correlation_regime(self):
        for temperature, sep in ((3.0, 20), (2.6, 10)):
            exact = ising2d.entropies([temperature], [sep])[2][0, 0]
            approx = expansion_mi(temperature, sep)
            assert exact < 1e-3
            assert approx == pytest.approx(exact, rel=0.1)

    def test_critical_ratio_recorded(self):
        exact = ising2d.entropies([TC], [100])[2][0, 0]
        approx = expansion_mi(TC, 100)
        print(f"critical expansion/exact MI ratio at separation 100: "
              f"{approx / exact:.6f}")


class TestElementGuards:
    def test_rejects_inconsistent_elements(self, monkeypatch):
        # drive the guard with an impossible correlation value
        monkeypatch.setattr(ising2d, "diagonal_correlations",
                            lambda T, separations: np.array([[1.5]]))
        with pytest.raises(ModelConsistencyError):
            ising2d.entropies([2.0], [1])

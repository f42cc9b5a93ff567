"""Acceptance criteria, one test per numbered criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output on failure) and then asserts at the stated tolerance.

Criterion 5 asserts the below-T_c exponent -1/2 of dMI/dT, which follows
from MI ~ G^2/(2 ln 2) with G -> m^2 ~ (T_c - T)^(1/4), at a separation
large enough for the fit window to lie in the scaling regime, and ties the
fit to the closed-form infinite-separation derivative.  The
finite-temperature half of criterion 6 compares the ED Gibbs state with the
free-fermion route that computes the same ensemble, the parity-projected
sector="gibbs" (see the README's design notes).
"""

import math
import sys
import threading

import numpy as np
import pytest

from critent import analysis, density, dimer, exact, ising2d, tfim
from oracles import derivative_at

TC = ising2d.critical_temperature()


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


class TestCriterion1Singlet:
    def test_singlet_mi_two_bits(self):
        psi = np.zeros(4)
        psi[1], psi[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        rho = density.make_density_matrix(np.outer(psi, psi), (2, 2))
        mi = density.mutual_information(rho)
        ok = report(1, abs(mi - 2.0) <= 1e-12, f"singlet MI = {mi:.15f}")
        assert ok


class TestCriterion2KleinPositivity:
    def test_random_state_suites(self):
        rng = np.random.default_rng(20240817)
        worst_mi = math.inf
        worst_gap = 0.0
        for _ in range(1000):
            rho = density.random_density_matrix((2, 2), rng)
            mi = density.mutual_information(rho)
            worst_mi = min(worst_mi, mi)
            product = density.tensor_product(
                density.partial_trace(rho, {0}), density.partial_trace(rho, {1})
            )
            worst_gap = max(
                worst_gap, abs(density.relative_entropy(rho, product) - mi)
            )
        worst_klein = math.inf
        for _ in range(1000):
            a = density.random_density_matrix((4,), rng)
            b = density.random_density_matrix((4,), rng)
            worst_klein = min(worst_klein, density.relative_entropy(a, b))
        ok = report(
            2,
            worst_mi >= -1e-9 and worst_gap <= 1e-9 and worst_klein >= -1e-9,
            f"min MI = {worst_mi:.2e}, max |rel.ent - MI| = {worst_gap:.2e}, "
            f"min rel.ent = {worst_klein:.2e}",
        )
        assert ok


class TestCriterion3Dimer:
    def test_cold_value_monotonicity_and_high_t_slope(self):
        (cold,) = dimer.entropies([0.01])[2]
        grid = np.arange(0.1, 10.0001, 0.1)
        values = dimer.entropies(grid)[2]
        monotone = bool(np.all(values[:-1] > values[1:]))
        ts = np.geomspace(50.0, 500.0, 12)
        mis = dimer.entropies(ts)[2]
        oracle = 3.0 / (2.0 * math.log(2.0) * ts**2) * (1.0 + 4.0 / (3.0 * ts))
        slope = np.polyfit(np.log(ts), np.log(mis), 1)[0]
        slope_oracle = np.polyfit(np.log(ts), np.log(oracle), 1)[0]
        print(
            f"criterion 3 note: high-T slope fitted {slope:.4f}, series oracle "
            f"{slope_oracle:.4f}; the claimed 1/T decay would give slope -1"
        )
        ok = report(
            3,
            abs(cold - 2.0) <= 1e-6 and monotone
            and abs(slope - slope_oracle) <= 0.05,
            f"MI(0.01) = {cold:.9f}, monotone = {monotone}, "
            f"slope = {slope:.4f} vs oracle {slope_oracle:.4f}",
        )
        assert ok


class TestCriterion4CriticalDecay:
    def test_exponent_amplitude_and_mi_window(self):
        seps = np.arange(10, 101)
        corr = ising2d.diagonal_correlations([TC], seps)[0]
        fit = analysis.power_law_fit(seps, corr)
        exponent, amplitude = fit.coefficients[0], fit.amplitude
        window = range(50, 101)
        scaled = [
            mi * 2.0 * math.sqrt(n) * math.log(2.0)
            for n, mi in zip(window, ising2d.entropies([TC], window)[2][0])
        ]
        window_ok = all(0.406 <= s <= 0.426 for s in scaled)
        ok = report(
            4,
            abs(exponent + 0.25) <= 0.01 and abs(amplitude - 0.645) <= 0.01
            and window_ok,
            f"exponent = {exponent:.5f}, amplitude = {amplitude:.5f}, "
            f"MI*2sqrt(N)ln2 in [{min(scaled):.4f}, {max(scaled):.4f}]",
        )
        assert ok


def _infinite_separation_mi(temperature):
    """1 - h((1 + m^2)/2) bits: the symmetric-ensemble MI at G = m^2."""
    p = (1.0 + ising2d.magnetization(temperature) ** 2) / 2.0
    return 1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)


class TestCriterion5DerivativeExponents:
    def test_below_tc_power_law(self):
        # MI ~ G^2/(2 ln 2) and G -> m^2 ~ (Tc - T)^(1/4), so |dMI/dT| ~
        # (Tc - T)^(-1/2); -3/4 is the exponent of d(m^2)/dT.  At N = 30 the
        # window sits in the finite-size crossover N (Tc - T) <~ 3, so the
        # fit uses N = 800, where it is in the scaling regime.
        result = analysis.ising2d_derivative_exponent("below", separation=800)
        exponent = result["fit"].coefficients[0]
        offsets = np.array(result["offsets"])
        closed_form = [
            derivative_at(
                _infinite_separation_mi, TC - t, min(1e-3, t / 10.0)
            )
            for t in offsets
        ]
        closed_exponent = analysis.power_law_fit(
            offsets, np.abs(closed_form)
        ).coefficients[0]
        ok = report(
            "5 (below)",
            abs(exponent + 0.5) <= 0.05
            and abs(exponent - closed_exponent) <= 0.01,
            f"|dMI/dT| exponent over Tc-T in [1e-3, 1e-1] at N=800: "
            f"{exponent:.4f} (required -0.5 +- 0.05; closed-form N -> inf "
            f"slope {closed_exponent:.4f}, required within 0.01)",
        )
        assert ok

    def test_above_tc_log_law(self):
        result = analysis.ising2d_derivative_exponent("above", separation=30)
        rel = result["relative_residual"]
        ok = report(
            "5 (above)",
            rel < 0.05,
            f"dMI/dT vs ln(T-Tc) relative residual = {rel:.3%} over "
            f"[{result['offsets'][0]:.0e}, {result['offsets'][-1]:.2g}]",
        )
        assert ok


def _oracle_gap(sites, coupling, temperature):
    # at T > 0 the oracle's exp(-H/T)/Z spans both parities, which only the
    # parity-projected "gibbs" route computes; at T = 0 both are the ground
    # state of the even sector
    sector = "gibbs" if temperature > 0 else "even"
    worst = 0.0
    seps = range(1, sites // 2 + 1)
    mz, *arrays, _ = exact.reports(sites, coupling, temperature, seps)
    for sep, *ed in zip(seps, *arrays):
        params = tfim.TfimParams(coupling=coupling, temperature=temperature,
                                 sites=sites, separation=sep, sector=sector)
        free = (*tfim.correlations(params), tfim.correlation_mi(params))
        worst = max(worst, *(abs(f - e) for f, e in zip(free, (mz, *ed), strict=True)))
    return worst


COUPLING_GRID = (0.25, 0.5, 1.0, 1.5, 2.0)
ROUNDING_LEVEL = 1e-12


class TestCriterion6OracleEquivalence:
    def test_zero_temperature_equivalence(self):
        worst = 0.0
        for sites in (4, 6, 8, 10):
            for coupling in COUPLING_GRID:
                worst = max(worst, _oracle_gap(sites, coupling, 0.0))
        ok = report(
            "6 (T=0)", worst <= 1e-8,
            f"max |free-fermion - ED| over the grid = {worst:.3e}",
        )
        assert ok

    def test_gibbs_route_at_twelve_sites(self):
        # every r and every quantity, at the largest ring the oracle takes
        worst = max(
            _oracle_gap(12, coupling, temperature)
            for coupling in (0.5, 1.0, 2.0)
            for temperature in (0.5, 1.0)
        )
        ok = report(
            "6 (gibbs, N=12)", worst <= 1e-12,
            f"max |gibbs route - ED| at N=12, T in {{0.5, 1}} = {worst:.3e}",
        )
        assert ok

    def test_finite_temperature_proximity(self):
        gaps = {}
        for temperature in (0.5, 1.0):
            for sites in (6, 8, 10):
                gaps[(temperature, sites)] = max(
                    _oracle_gap(sites, coupling, temperature)
                    for coupling in COUPLING_GRID
                )
        detail = ", ".join(
            f"T={t} N={n}: {gaps[(t, n)]:.3g}" for t, n in sorted(gaps)
        )
        # the ordering compares gaps above rounding level only; below it the
        # order of rounding noise carries no information
        floored = {key: max(gap, ROUNDING_LEVEL) for key, gap in gaps.items()}
        ok = all(
            gaps[(t, 10)] <= 2e-2
            and floored[(t, 6)] >= floored[(t, 8)] >= floored[(t, 10)]
            for t in (0.5, 1.0)
        )
        ok = report(
            "6 (finite T)", ok,
            f"{detail}; bound 2e-2 at N=10, no growth with N above "
            f"{ROUNDING_LEVEL:.0e}",
        )
        assert ok


class TestCriterion7PhaseSignature:
    def test_paramagnetic_decay_and_ordered_plateau(self):
        para = tfim.correlation_mi(
            tfim.TfimParams(coupling=0.2, temperature=0.0, sites=1000, separation=20)
        )
        mi50 = tfim.correlation_mi(
            tfim.TfimParams(coupling=2.0, temperature=0.0, sites=1000, separation=50)
        )
        mi100 = tfim.correlation_mi(
            tfim.TfimParams(coupling=2.0, temperature=0.0, sites=1000, separation=100)
        )
        ok = report(
            7,
            para < 1e-8 and abs(mi50 - mi100) < 1e-4,
            f"MI(0.2, r=20) = {para:.2e}; plateau |MI(50)-MI(100)| = "
            f"{abs(mi50 - mi100):.2e}",
        )
        assert ok


class TestCriterion8NearestNeighbourScaling:
    def test_log_linear_growth(self):
        result = analysis.tfim_nn_scaling()
        slope = result["fit"].coefficients[1]
        rel = result["relative_residual"]
        ok = report(
            8, slope > 0 and rel < 0.05,
            f"dMI(0,1)/dlambda ~ a + b lnN with b = {slope:.4f}, "
            f"relative residual = {rel:.3%}",
        )
        assert ok


class TestCriterion9FarthestPairScaling:
    def test_log_cubed_growth(self):
        result = analysis.tfim_far_scaling()
        slope = result["fit"].coefficients[1]
        rel = result["relative_residual"]
        rel_lin = result["relative_residual_linear"]
        beats = result["fit"].residual_norm < result["fit_linear"].residual_norm
        ok = report(
            9, slope > 0 and rel < 0.10 and beats,
            f"peak dMI(0,N/2)/dlambda ~ a + b ln^3 N with b = {slope:.5f}, "
            f"residual {rel:.3%} (ln model {rel_lin:.3%})",
        )
        assert ok


class TestCriterion10ThermalSuppression:
    def test_strictly_decreasing_in_temperature(self):
        values = [
            tfim.correlation_mi(
                tfim.TfimParams(coupling=2.0, temperature=t, sites=400, separation=20)
            )
            for t in (0.0, 0.2, 0.5)
        ]
        ok = report(
            10,
            values[0] > values[1] > values[2],
            "MI at T=0, 0.2, 0.5: " + ", ".join(f"{v:.6f}" for v in values),
        )
        assert ok


class TestCriterion11Determinism:
    # every sweep twice, so that the same grid also runs on two threads at once
    SWEEPS = [
        ("ising2d", {"T": np.linspace(1.5, 3.5, 21), "N": range(1, 51)}, None),
        ("tfim", {"lam": np.linspace(0.5, 1.5, 11), "r": range(1, 31)},
         {"T": 0.5, "N": 200, "sector": "gibbs"}),
        ("dimer", {"T": np.linspace(0.1, 10.0, 100)}, None),
    ] * 2

    def test_serial_and_concurrent_outputs_identical(self):
        def csv(model, axes, fixed):
            return analysis.records_to_csv(analysis.sweep(model, axes=axes, fixed=fixed))

        serial = [csv(*case) for case in self.SWEEPS]
        concurrent = [None] * len(self.SWEEPS)
        # every thread starts its sweep when the last one is ready
        start = threading.Barrier(len(self.SWEEPS), timeout=60)

        def run(k):
            start.wait()
            concurrent[k] = csv(*self.SWEEPS[k])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(self.SWEEPS))]
        # more threads than cores, and thread switches far more often than
        # the default 5 ms, so the sweeps' Python steps interleave too
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ok = report(
            11,
            concurrent == serial,
            f"{len(threads)} sweeps started at once on their own threads match serial runs",
        )
        assert ok

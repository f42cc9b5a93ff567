import math
import tracemalloc

import numpy as np
import pytest

from critent import density, exact, ising2d, tfim
from critent.tfim import TfimParams
from oracles import (
    CRITICAL_AMPLITUDE,
    site_state,
    tfim_coefficient,
    tfim_gibbs_reference,
    tfim_mi_reference,
    tfim_ordered_limits,
    tfim_window_reference,
    tfim_windows,
    weak_pair_factor,
    x_state,
)


def test_product_ground_state_entropies_are_positive_zero():
    # at lambda = 0 every spin is polarized along the field: a pure product
    s_i, s_ij, mi = tfim.entropies([0.0], 0.0, 1000, range(1, 51))
    for values in (s_i, s_ij, mi):
        assert np.all(values == 0.0) and not np.any(np.signbit(values))


def params(coupling, temperature, sites, separation, sector="even"):
    return TfimParams(
        coupling=coupling,
        temperature=temperature,
        sites=sites,
        separation=separation,
        sector=sector,
    )


def correlations_at(p):
    """(mz, gxx, gyy, gzz) at one parameter point, as floats: the one-point
    grid of tfim.correlations."""
    mz, *values, _ = tfim.correlations(
        [p.coupling], p.temperature, p.sites, [p.separation], p.sector)
    return (float(mz[0]), *(float(v[0, 0]) for v in values))


def coupling_row(coupling, temperature, sites, separations, sector="even"):
    """mz, then gxx, gyy, gzz and MI over the separations: one coupling's
    row of the correlations grid and of its one two_site_entropies call."""
    mz, gxx, gyy, gzz, czz = tfim.correlations([coupling], temperature, sites, separations, sector)
    mi = density.two_site_entropies(mz[:, None], gxx, gyy, gzz, czz)[2]
    return float(mz[0]), gxx[0], gyy[0], gzz[0], mi[0]


class TestMomenta:
    def test_even_sector_n4(self):
        phis = tfim.momenta(4, "even")
        assert np.allclose(np.sort(phis), [-3 * np.pi / 4, -np.pi / 4, np.pi / 4, 3 * np.pi / 4])

    def test_odd_sector_n4(self):
        phis = tfim.momenta(4, "odd")
        assert np.allclose(np.sort(phis), [-np.pi / 2, 0.0, np.pi / 2, np.pi])

    @pytest.mark.parametrize("sites", [4, 6, 10, 32])
    def test_count(self, sites):
        assert len(tfim.momenta(sites, "even")) == sites
        assert len(tfim.momenta(sites, "odd")) == sites

    def test_odd_ring_rejected(self):
        with pytest.raises(ValueError):
            tfim.momenta(5)


class TestDispersion:
    def test_free_spins(self):
        assert np.allclose(tfim.dispersion(0.0, np.linspace(0, np.pi, 7)), 1.0)

    def test_strong_coupling_point(self):
        assert tfim.dispersion(2.0, np.pi) == pytest.approx(3.0)

    def test_gapless_form_at_unit_coupling(self):
        phi = np.linspace(1e-4, np.pi, 50)
        assert np.allclose(tfim.dispersion(1.0, phi), 2 * np.abs(np.sin(phi / 2)))


class TestMagnetization:
    def test_free_spins_saturate(self):
        assert tfim.magnetization_z(0.0, 0.0, 8) == pytest.approx(1.0, abs=1e-14)

    def test_hot_limit(self):
        # leading behaviour is 1/T, so 1e8 leaves ~1e-8
        assert abs(tfim.magnetization_z(1.0, 1e8, 16)) < 2e-8
        assert abs(tfim.magnetization_z(1.0, 1e12, 16)) < 1e-10

    def test_critical_continuum_value(self):
        assert tfim.magnetization_z(1.0, 0.0, 1000) == pytest.approx(
            2.0 / math.pi, abs=2e-3
        )

    def test_equals_minus_central_coefficient(self):
        for lam in (0.3, 1.0, 1.7):
            mz = tfim.magnetization_z(lam, 0.4, 12)
            a0 = tfim_coefficient(lam, 0.4, 12, 0)
            assert mz == pytest.approx(-a0, abs=1e-14)


class TestCoefficients:
    def test_free_spin_limit(self):
        for n in range(-2, 3):
            expected = -1.0 if n == 0 else 0.0
            assert tfim_coefficient(0.0, 0.0, 10, n) == pytest.approx(
                expected, abs=1e-12
            )

    def test_strong_coupling_limit(self):
        for n in range(-3, 4):
            expected = 1.0 if n == -1 else 0.0
            assert tfim_coefficient(1e4, 0.0, 12, n) == pytest.approx(
                expected, abs=1e-3
            )

    def test_sector_gap_is_small(self):
        for n in (0, 1, -1):
            even = tfim_coefficient(0.5, 0.0, 1000, n, "even")
            odd = tfim_coefficient(0.5, 0.0, 1000, n, "odd")
            assert abs(even - odd) < 1e-2

    def test_window_matches_singles(self):
        # the FFT window against the direct momentum sum
        for lam, temperature, sites, sector, n_max in (
            (0.8, 0.3, 14, "even", 5),
            (0.8, 0.3, 14, "odd", 5),
            (1.3, 0.0, 14, "odd", 7),
            (1.0, 0.0, 1000, "even", 60),
            (0.6, 0.0, 1000, "odd", 60),
            (1.0, 2.0, 1000, "odd", 60),
        ):
            window = tfim.coefficient_window(lam, temperature, sites, n_max, sector)
            for n in range(-n_max, n_max + 1):
                assert window[n + n_max] == pytest.approx(
                    tfim_coefficient(lam, temperature, sites, n, sector),
                    abs=1e-14,
                )

    @pytest.mark.parametrize("sector", ["even", "odd"])
    @pytest.mark.parametrize("temperature", [0.0, 0.4])
    @pytest.mark.parametrize("sites", [8, 512, 1000])
    @pytest.mark.parametrize("above_half", [False, True])
    def test_coupling_stack_equals_single_windows_bit_for_bit(
        self, sector, temperature, sites, above_half
    ):
        # one FFT call over a (couplings, N) array: each row is the window
        # of its coupling alone, and the per-coupling reference's, bit for bit
        n_max = sites // 2 + 3 if above_half else sites // 2 - 1
        couplings = [0.0, 0.3, 0.999, 1.0001, 1.7, 12.5]
        stack = tfim.coefficient_window(couplings, temperature, sites, n_max, sector)
        assert stack.shape == (len(couplings), 2 * n_max + 1)
        singles = [tfim.coefficient_window(lam, temperature, sites, n_max, sector)
                   for lam in couplings]
        assert np.array_equal(stack, singles)
        assert np.array_equal(stack, tfim_windows(couplings, temperature, sites, n_max, sector))
        one = tfim.coefficient_window([0.3], temperature, sites, n_max, sector)
        assert one.shape == (1, 2 * n_max + 1) and np.array_equal(one[0], singles[1])

    def test_coupling_stack_peak_memory(self):
        # 102 couplings (a far-pair coarse stencil) at N = 512: the spectrum
        # is built in place, so the call peaks near the FFT's complex input
        # and output, about 4x the real result; the direct expression
        # (lambda e^{i phi} - 1) f peaks above 7x
        couplings = np.concatenate([np.arange(0.9, 1.15 + 1e-12, 0.005) + d for d in (1e-4, -1e-4)])
        tfim.coefficient_window(couplings, 0.0, 512, 256)  # FFT plan caches
        tracemalloc.start()
        try:
            window = tfim.coefficient_window(couplings, 0.0, 512, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert window.shape == (102, 513)
        assert peak < 5 * window.nbytes

    def test_window_entries_do_not_depend_on_width(self):
        wide = tfim.coefficient_window(0.9, 0.4, 1000, 50)
        for n_max in (0, 1, 7):
            narrow = tfim.coefficient_window(0.9, 0.4, 1000, n_max)
            assert np.array_equal(narrow, wide[50 - n_max:51 + n_max])

    def test_window_against_40_digit_sum_at_criticality(self):
        window = tfim.coefficient_window(1.0, 0.0, 1000, 40)
        ns = (-40, -1, 0, 1, 2, 39)
        for n, exact in zip(ns, tfim_window_reference(1.0, 1000, ns)):
            assert abs(window[n + 40] - exact) < 1e-14

    @pytest.mark.parametrize("coupling", [0.9, 1.0])
    def test_window_relative_precision_near_criticality(self, coupling):
        # the FFT window's coefficients carry 12 digits where they are not small
        window = tfim.coefficient_window(coupling, 0.0, 1000, 40)
        ns = (0, 1, -1, 10, -10, 30, -30, 40, -40)
        for n, exact in zip(ns, tfim_window_reference(coupling, 1000, ns)):
            assert abs(window[n + 40] / exact - 1) < 1e-12, n

    @pytest.mark.xfail(strict=True, reason="weak-pair coefficients have no relative "
                       "precision: a_30 at lambda = 0.2 is -2.07e-18 against -1.08e-22 "
                       "(FFT round-off, ROADMAP direction 4(c))")
    def test_window_relative_precision_deep_in_the_paramagnet(self):
        window = tfim.coefficient_window(0.2, 0.0, 1000, 40)
        (exact,) = tfim_window_reference(0.2, 1000, [30])
        assert abs(window[30 + 40] / exact - 1) < 1e-12

    def test_gibbs_window_leaves_out_zero_mode_at_unit_coupling(self):
        # the R grid's phi = 0 mode has omega = 0 at lambda = 1; its windows
        # hold the sum over the other modes, with 1/N kept
        sites, temperature, n_max = 12, 0.5, 6
        _, _, _, windows = tfim._gibbs_traces(np.array([0.5, 1.0]), temperature, sites, n_max)
        assert windows.shape == (2, 4, 2 * n_max + 1) and np.all(np.isfinite(windows))
        phi = tfim.momenta(sites, "odd")
        phi = phi[phi != 0.0]
        y = tfim.dispersion(1.0, phi) / temperature
        for window, f in ((windows[1, 2], np.tanh(y) / (y * temperature)),
                          (windows[1, 3], 1.0 / (np.tanh(y) * y * temperature))):
            for n in range(-n_max, n_max + 1):
                direct = np.sum((np.cos(phi * (n + 1)) - np.cos(phi * n)) * f) / sites
                assert window[n + n_max] == pytest.approx(direct, abs=1e-14)

    def test_odd_sector_zero_mode_guard(self):
        with pytest.raises(ValueError):
            tfim.coefficient_window(1.0, 0.0, 8, 0, "odd")
        with pytest.raises(ValueError, match="gapless momentum at T = 0"):
            tfim.coefficient_window([0.5, 1.0, 1.5], 0.0, 8, 2, "odd")

    def test_negative_coupling_in_a_stack_is_rejected(self):
        with pytest.raises(ValueError, match="coupling must be >= 0"):
            tfim.coefficient_window([0.5, -1e-4], 0.0, 8, 2)
        with pytest.raises(ValueError, match="coupling must be >= 0"):
            tfim.dispersion(np.array([[0.5], [-1.0]]), tfim.momenta(8))


class TestCorrelations:
    def test_free_spin_values(self):
        mz, gxx, _, gzz = correlations_at(params(0.0, 0.0, 10, 3))
        assert mz == pytest.approx(1.0, abs=1e-12)
        assert abs(gxx) < 1e-12
        assert gzz == pytest.approx(1.0, abs=1e-12)

    def test_strong_coupling_values(self):
        _, gxx, gyy, _ = correlations_at(params(1e4, 0.0, 12, 3))
        assert gxx == pytest.approx(1.0, abs=1e-3)
        assert abs(gyy) < 1e-3

    def test_matches_oracle_on_sample_grid(self):
        for lam in (0.5, 1.0, 2.0):
            seps = (1, 3, 5)
            free = coupling_row(lam, 0.0, 10, seps)[:4]
            ed = exact.observables(10, lam, 0.0, seps)[:4]
            for value, expected in zip(free, ed, strict=True):
                assert value == pytest.approx(expected, abs=1e-8)


NAN, INF = math.nan, math.inf
COUPLING, TEMPERATURE = "coupling must be >= 0", "temperature must be >= 0"
FINITE = "coupling must be finite"
SITES, SEPARATION = "sites must be even and >= 4", "separation must be in [1, sites/2]"
SECTOR = "sector must be one of ('even', 'odd', 'gibbs')"


class TestCheckGrid:
    """One rule for the free-fermion side: check_grid, TfimParams and
    correlations reject the same inputs with the same first message."""

    # (couplings, temperature, sites, separations, sector, message)
    BAD = [
        # one bad field
        ([NAN], 0.5, 8, [2], "even", COUPLING),
        ([-0.5], 0.5, 8, [2], "even", COUPLING),
        ([INF], 0.5, 8, [2], "even", FINITE),
        ([1.0], -0.1, 8, [2], "even", TEMPERATURE),
        ([1.0], NAN, 8, [2], "even", TEMPERATURE),
        ([1.0], 0.5, 2, [1], "even", SITES),
        ([1.0], 0.5, 5, [2], "even", SITES),
        ([1.0], 0.5, 7, [2], "even", SITES),
        ([1.0], 0.5, 8, [0], "even", SEPARATION),
        ([1.0], 0.5, 8, [5], "even", SEPARATION),
        ([1.0], 0.5, 8, [2], "mixed", SECTOR),
        ([], 0.5, 8, [2], "even", "couplings must not be empty"),
        ([1.0], 0.5, 8, [], "even", "separations must not be empty"),
        # two bad fields: the first in the rule's order wins
        ([NAN], -1.0, 8, [2], "even", COUPLING),
        ([-0.5], 0.5, 8, [5], "even", COUPLING),
        ([INF], -1.0, 8, [2], "even", FINITE),
        ([INF], 0.5, 7, [5], "mixed", FINITE),
        ([1.0], NAN, 7, [2], "even", TEMPERATURE),
        ([1.0], -0.1, 8, [0], "even", TEMPERATURE),
        ([1.0], 0.5, 5, [0], "even", SITES),
        ([1.0], 0.5, 2, [1], "mixed", SITES),
        ([1.0], 0.5, 8, [0], "mixed", SEPARATION),
        ([1.0], 0.5, 8, [5], "mixed", SEPARATION),
        ([], 0.5, 8, [], "even", "couplings must not be empty"),
        ([-0.5], 0.5, 8, [], "even", "separations must not be empty"),
        # grids: the smallest coupling (NaN anywhere), the largest
        # coupling, the smallest separation, the sector, then the largest
        # separation
        ([1.0, NAN], 0.5, 8, [2], "even", COUPLING),
        ([1.0, -1e-4], 0.5, 8, [2], "even", COUPLING),
        ([1.0, INF], 0.5, 8, [2], "even", FINITE),
        ([INF, NAN], 0.5, 8, [2], "even", COUPLING),
        ([INF, -1e-4], 0.5, 8, [2], "even", COUPLING),
        ([1.0], 0.5, 8, [4, 0], "mixed", SEPARATION),
        ([1.0], 0.5, 8, [1, 5], "mixed", SECTOR),
        ([1.0], 0.5, 8, [1, 5], "gibbs", SEPARATION),
    ]

    @pytest.mark.parametrize("couplings, temperature, sites, separations, sector, message", BAD,
                             ids=map(str, range(len(BAD))))
    def test_every_route_raises_the_same_message(
            self, couplings, temperature, sites, separations, sector, message, monkeypatch):
        def ifft(*args, **kwargs):
            raise AssertionError("a window was built before the parameters were checked")

        monkeypatch.setattr(np.fft, "ifft", ifft)
        routes = [tfim.check_grid, tfim.correlations]
        if len(couplings) == len(separations) == 1:
            routes.append(lambda c, t, n, r, s: params(c[0], t, n, r[0], s))
        for route in routes:
            with pytest.raises(ValueError) as err:
                route(couplings, temperature, sites, separations, sector)
            assert str(err.value) == message

    @pytest.mark.parametrize("sector", tfim.SECTORS)
    def test_good_grid_passes(self, sector):
        assert tfim.check_grid(np.array([0.0, 2.0]), 0.0, 4, range(1, 3), sector) is None


def pair_state(p):
    """Dense two-site state built from the kernel's inputs."""
    return x_state(*correlations_at(p))


class TestTwoSiteState:
    """The X-state the kernel evaluates, built densely from the ring's
    correlations."""

    def test_free_spins_polarized_product(self):
        rho = pair_state(params(0.0, 0.0, 8, 2))
        proj = np.zeros((4, 4))
        proj[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - proj)) < 1e-12
        assert tfim.correlation_mi(params(0.0, 0.0, 8, 2)) < 1e-12

    def test_strong_coupling_cat_state_mi(self):
        # classical perfect xx correlation across half the ring carries one
        # bit; cross-checked against exact diagonalization at 12 sites
        p = params(1e4, 0.0, 12, 6)
        mi = tfim.correlation_mi(p)
        assert mi == pytest.approx(1.0, abs=1e-3)
        assert mi == pytest.approx(exact.observables(12, 1e4, 0.0, [6])[4][0], abs=1e-8)

    def test_state_matches_oracle_entrywise(self):
        # independent reduction straight from the ground-state vector
        sites, sep = 10, 3
        ham = exact.build_hamiltonian(sites, 1.0)
        _, vecs = np.linalg.eigh(ham)
        psi = vecs[:, 0]
        tensor = psi.reshape((2,) * sites)
        axes = (sites - 1 - 0, sites - 1 - sep)
        front = np.moveaxis(tensor, axes, (0, 1)).reshape(4, -1)
        oracle_rho = front @ front.conj().T
        rho = pair_state(params(1.0, 0.0, sites, sep))
        assert np.max(np.abs(rho.matrix - oracle_rho)) < 1e-8
        (ed_mi,) = exact.observables(sites, 1.0, 0.0, [sep])[4]
        assert tfim.correlation_mi(params(1.0, 0.0, sites, sep)) == pytest.approx(
            ed_mi, abs=1e-8
        )

    def test_marginal_consistency(self):
        # the kernel's entropies against the dense state's, whose marginals
        # are the single-site state of magnetization_z
        for lam, temperature, sector in (
            (0.4, 0.0, "even"), (1.0, 0.3, "even"), (1.8, 0.7, "even"),
            (1.3, 0.7, "gibbs"),
        ):
            p = params(lam, temperature, 12, 4, sector)
            rho_ij = pair_state(p)
            rho_i = site_state(tfim.magnetization_z(lam, temperature, 12, sector))
            for site in (0, 1):
                marg = density.partial_trace(rho_ij, {site})
                assert np.max(np.abs(marg.matrix - rho_i.matrix)) < 1e-10
            s_i, s_ij, mi = (v[0, 0] for v in tfim.entropies([lam], temperature, 12, [4], sector))
            assert s_i == pytest.approx(density.von_neumann_entropy(rho_i), abs=1e-10)
            assert s_ij == pytest.approx(density.von_neumann_entropy(rho_ij), abs=1e-10)
            assert mi == pytest.approx(density.mutual_information(rho_ij), abs=1e-10)

    def test_infinite_temperature_is_uncorrelated(self):
        assert tfim.correlation_mi(params(1.0, math.inf, 12, 3)) == 0.0


class TestSuzukiEquivalence:
    @pytest.mark.parametrize("coupling", [0.5, 1.25, 2.0])
    def test_ground_state_gxx_is_2d_ising_diagonal_correlation(self, coupling):
        # the ring's T = 0 symbol is the 2D Ising symbol at
        # sinh^2(2/T) = lambda (Suzuki, Phys. Lett. A 34, 94 (1971)), so
        # <sx_0 sx_r> equals <s_{0,0} s_{r,r}> at T = 2/asinh(sqrt(lambda))
        temperature = 2.0 / math.asinh(math.sqrt(coupling))
        separations = (1, 5, 10)
        planes = ising2d.diagonal_correlations([temperature], separations)[0]
        for r, plane in zip(separations, planes):
            ring = correlations_at(params(coupling, 0.0, 4000, r))[1]
            assert abs(ring - plane) < 1e-13, r


class TestCriticalAmplitude:
    """The critical ring shares the 2D Ising diagonal's amplitude and
    exponent 1/4: gxx ~ A c^(-1/4) in the conformal chord c = (N/pi)
    sin(pi r/N) (Cardy, J. Phys. A 17, L385 (1984)), and MI ~ gxx^2
    K(mz)/(2 ln 2), A^2 K(mz) c^(-1/2)/(2 ln 2) at leading order."""

    SITES, SEPARATIONS = 1000, (100, 200, 400)

    def critical_point(self):
        mz, gxx, _, _, mi = coupling_row(1.0, 0.0, self.SITES, self.SEPARATIONS)
        return mz, gxx, mi

    def test_gxx_carries_the_ising_amplitude(self):
        _, gxx, _ = self.critical_point()
        chord = self.SITES / math.pi * np.sin(math.pi * np.array(self.SEPARATIONS) / self.SITES)
        # measured within 1.01e-6 (r = 100)
        assert np.all(np.abs(gxx * chord**0.25 - CRITICAL_AMPLITUDE) <= 1e-5)

    def test_mi_is_the_weak_pair_law_of_gxx(self):
        mz, gxx, mi = self.critical_point()
        leading = gxx**2 * weak_pair_factor(mz) / (2.0 * math.log(2.0))
        # the next order is positive, measured at about 0.44 gxx^2
        excess = mi / leading - 1.0
        assert np.all((0.0 <= excess) & (excess <= 0.5 * gxx**2)), excess / gxx**2


class TestOrderedFarPair:
    """Deep in the ordered phase the far pair decouples into the product of
    its long-range order: gxx -> m_x^2, mz -> mz_inf, gyy and czz -> 0, so
    MI reaches the plateau MI_inf(lambda) of the X-state (mz_inf, m_x^2, 0,
    0), the closed forms of tfim_ordered_limits.  At N = 2000 the ring's
    corrections are exponentially small in r/xi and (N - r)/xi."""

    SITES, SEPARATIONS = 2000, (100, 1000)

    @pytest.mark.parametrize("coupling", [1.2, 1.5, 2.0])
    def test_correlations_and_the_mi_reach_the_closed_forms(self, coupling):
        mz, gxx, gyy, gzz, mi = coupling_row(coupling, 0.0, self.SITES, self.SEPARATIONS)
        mz_inf, mx2 = tfim_ordered_limits(coupling)
        mi_inf = density.x_state_entropies(mz_inf, mx2, 0.0, 0.0)[2][0]
        # measured within 3.8e-13 (gxx), 5.6e-17 (mz) and 1.3e-12 (MI), the
        # worst at lambda = 1.5, r = 1000
        assert np.all(np.abs(gxx - mx2) <= 1e-12)
        assert abs(mz - mz_inf) <= 1e-14
        assert np.all(np.abs(gyy) <= 1e-12)
        assert np.all(np.abs(gzz - mz * mz) <= 1e-12)
        assert np.all(np.abs(mi - mi_inf) <= 5e-12)

    # a long-range correlation that does not vanish forces an MI that does
    # not vanish: MI >= gxx^2/(2 ln 2) (Wolf, Verstraete, Hastings and
    # Cirac, PRL 100, 070502 (2008)), up to 4 ulps of the bound.  MI over
    # the bound measured 1.386-1.505 on the plateau, tending to 2 ln 2 as
    # lambda grows, and 1.43-1.49 on the ring
    @staticmethod
    def assert_far_pair_bound(mi, gxx):
        bound = gxx * gxx / (2.0 * math.log(2.0))
        assert mi >= bound - 4 * np.spacing(bound)

    @pytest.mark.parametrize("coupling", [1.0001, 1.001, 1.01, 1.1, 1.5, 2.0, 5.0, 50.0])
    def test_plateau_obeys_the_far_pair_bound(self, coupling):
        """MI_inf >= m_x^4/(2 ln 2), the bound at gxx = m_x^2."""
        mz_inf, mx2 = tfim_ordered_limits(coupling)
        self.assert_far_pair_bound(density.x_state_entropies(mz_inf, mx2, 0.0, 0.0)[2][0], mx2)

    @pytest.mark.parametrize("coupling", [1.2, 1.5, 2.0])
    def test_ring_far_pair_obeys_the_bound(self, coupling):
        _, gxx, _, _, mi = coupling_row(coupling, 0.0, self.SITES, [self.SITES // 2])
        self.assert_far_pair_bound(mi[0], gxx[0])

    @pytest.mark.parametrize("distance", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_plateau_slope_diverges_as_inverse_square_root(self, distance):
        """Near lambda = 1+ the plateau is a weak gxx = m_x^2 pair, so
        MI_inf = K(mz_inf) m_x^4/(2 ln 2) (1 + O(m_x^4)) with m_x^4 = (1 -
        lambda^-2)^(1/2) = (2 (lambda - 1))^(1/2) (1 + O(lambda - 1)) and
        mz_inf -> 2/pi.  Hence dMI_inf/dlambda ~ C (lambda - 1)^(-1/2) with
        C = K(2/pi) sqrt(2)/(4 ln 2): the exponent is -1/2, not the -3/4 of
        d(m_x^2)/dlambda.  The slope is a central difference with step
        1e-3 (lambda - 1); the relative excess over C is bounded by m_x^4
        (measured 0.27 to 0.84 m_x^4)."""
        lam, step = 1.0 + distance, 1e-3 * distance

        def plateau(coupling):
            return density.x_state_entropies(*tfim_ordered_limits(coupling), 0.0, 0.0)[2][0]

        slope = (plateau(lam + step) - plateau(lam - step)) / (2.0 * step)
        c = weak_pair_factor(2.0 / math.pi) * math.sqrt(2.0) / (4.0 * math.log(2.0))
        assert c == pytest.approx(0.730280, abs=1e-6)
        mx4 = math.sqrt(1.0 - lam**-2)
        assert abs(slope * math.sqrt(distance) / c - 1.0) <= mx4


class TestCorrelationMi:
    def test_paramagnetic_decay(self):
        assert tfim.correlation_mi(params(0.2, 0.0, 1000, 20)) < 1e-8

    def test_ordered_plateau(self):
        mi50 = tfim.correlation_mi(params(2.0, 0.0, 1000, 50))
        mi100 = tfim.correlation_mi(params(2.0, 0.0, 1000, 100))
        assert abs(mi50 - mi100) < 1e-4
        assert mi50 > 0.4

    def test_thermal_suppression(self):
        values = [
            tfim.correlation_mi(params(2.0, t, 400, 20)) for t in (0.0, 0.2, 0.5)
        ]
        assert values[0] > values[1] > values[2]

    def test_critical_power_law_slope_is_stable(self):
        # log MI vs log r slope agrees between the decades [8,32] and
        # [32,128] at the critical coupling, unlike the exponential decay
        # away from it
        sites = 2048
        mis = {
            r: tfim.correlation_mi(params(1.0, 0.0, sites, r)) for r in (8, 32, 128)
        }
        s_low = (math.log(mis[32]) - math.log(mis[8])) / (math.log(32) - math.log(8))
        s_high = (math.log(mis[128]) - math.log(mis[32])) / (math.log(128) - math.log(32))
        assert abs(s_low - s_high) < 0.1
        off = {r: tfim.correlation_mi(params(0.5, 0.0, sites, r)) for r in (2, 4, 8, 16)}
        e_low = (math.log(off[8]) - math.log(off[2])) / (math.log(8) - math.log(2))
        e_high = (math.log(off[16]) - math.log(off[8])) / (math.log(16) - math.log(8))
        # exponential decay steepens without bound on a log-log plot
        assert e_high < e_low - 1.0

    @pytest.mark.parametrize("sector", tfim.SECTORS)
    def test_batch_over_separations_equals_single_points(self, sector):
        for lam, temperature, sites in ((0.5, 0.0, 10), (1.0, 0.5, 12), (1.7, 1.0, 30)):
            seps = range(1, sites // 2 + 1)
            mz, gxx, gyy, gzz, mi = coupling_row(lam, temperature, sites, seps, sector)
            for i, r in enumerate(seps):
                p = params(lam, temperature, sites, r, sector)
                assert correlations_at(p) == (mz, gxx[i], gyy[i], gzz[i])
                assert tfim.correlation_mi(p) == mi[i]


class TestMiOverCouplings:
    STEP = 1e-4
    # the far-pair driver's stencils: its coarse grid across lambda = 1 and
    # a fine grid around lambda = 1
    COARSE = np.arange(0.9, 1.15 + 1e-12, 0.005)
    FINE = COARSE[20] + np.arange(-4, 5) * 0.001

    @staticmethod
    def mi_over_couplings(couplings, temperature, sites, separation, sector="even"):
        # the scaling drivers' stencil call: a one-separation entropies grid
        return tfim.entropies(couplings, temperature, sites, [separation], sector)[2][:, 0]

    @pytest.mark.parametrize("sites", [32, 64])
    @pytest.mark.parametrize("temperature", [0.0, 0.5])
    @pytest.mark.parametrize("grid", ["coarse", "fine"])
    def test_equals_correlation_mi_bit_for_bit(self, sites, temperature, grid):
        centres = self.COARSE if grid == "coarse" else self.FINE
        couplings = np.concatenate([centres + self.STEP, centres - self.STEP])
        assert couplings.min() < 1.0 < couplings.max()
        batch = self.mi_over_couplings(couplings, temperature, sites, sites // 2)
        single = [
            tfim.correlation_mi(params(lam, temperature, sites, sites // 2))
            for lam in couplings
        ]
        assert batch.tolist() == single

    def test_far_stencil_equals_per_coupling_reference_bit_for_bit(self):
        # the coarse stencil of a ring of 64: windows one coupling at a time
        # and a multiply-then-sum Levinson recursion, independent of the
        # library's stacked window and single-pass recursion
        couplings = np.concatenate([self.COARSE + self.STEP, self.COARSE - self.STEP])
        assert len(couplings) == 102
        batch = self.mi_over_couplings(couplings, 0.0, 64, 32)
        assert batch.tolist() == tfim_mi_reference(couplings, 64, 32).tolist()

    def test_other_sectors_and_separations(self):
        couplings = [0.4, 1.0, 1.6]
        for sector, temperature in (("odd", 0.5), ("even", 1.5), ("gibbs", 0.5)):
            batch = self.mi_over_couplings(couplings, temperature, 12, 3, sector)
            assert batch.tolist() == [
                tfim.correlation_mi(params(lam, temperature, 12, 3, sector))
                for lam in couplings
            ]

    @pytest.mark.parametrize("sector", ["even", "gibbs"])
    def test_empty_axes_are_named(self, sector, monkeypatch):
        # rejected before any coefficient window is built
        monkeypatch.setattr(tfim, "_window_values", None)
        with pytest.raises(ValueError, match="couplings must not be empty"):
            tfim.entropies([], 0.5, 100, [1], sector)
        with pytest.raises(ValueError, match="separations must not be empty"):
            tfim.entropies([1.0], 0.5, 100, [], sector)
        with pytest.raises(ValueError, match="separations must not be empty"):
            tfim.correlations([1.0], 0.5, 100, [], sector)


class TestGibbsSector:
    def test_zero_temperature_is_even_sector(self):
        for lam in (0.5, 1.0, 2.0):
            gibbs = correlations_at(params(lam, 0.0, 12, 4, "gibbs"))
            even = correlations_at(params(lam, 0.0, 12, 4, "even"))
            assert gibbs == even
            assert tfim.magnetization_z(lam, 0.0, 12, "gibbs") == even[0]

    def test_bounded_batches_split_couplings_not_values(self, monkeypatch):
        # a bordered stack too large for one slogdet call is taken a few
        # couplings at a time, with the same floats
        couplings, separations = [0.3, 1.0, 1.6], range(1, 7)
        whole = tfim.entropies(couplings, 0.5, 12, separations, "gibbs")
        calls, slogdet = [], np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append(a) or slogdet(a))
        monkeypatch.setattr(tfim, "_GIBBS_BATCH_ENTRIES", 1)
        split = tfim.entropies(couplings, 0.5, 12, separations, "gibbs")
        assert len(calls) == len(couplings) * (len(separations) + 2)
        for a, b in zip(whole, split):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("coupling", [0.5, 0.95, 1.5, 1.85, 2.0])
    def test_far_separations_equal_trace_sum(self, coupling):
        # the bordered determinants up to r = 100 against the four traces
        # summed directly, with the zero mode inside dense determinants
        separations = [20, 60, 80, 100]
        mz, gxx, gyy, gzz, _ = coupling_row(coupling, 0.5, 200, separations, "gibbs")
        for k, r in enumerate(separations):
            reference = tfim_gibbs_reference(coupling, 0.5, 200, r)
            for value, expected in zip((mz, gxx[k], gyy[k], gzz[k]), reference):
                assert abs(value - expected) <= 1e-13

    def test_continuous_across_unit_coupling(self):
        # the R-sector phi = 0 mode has zero energy at lambda = 1, where
        # Z~_R = 0 and coth(omega_0/T)/omega_0 diverges; their product is finite
        for temperature, sites in ((0.5, 10), (1.0, 10), (0.2, 200)):
            at = correlations_at(params(1.0, temperature, sites, sites // 4, "gibbs"))
            for lam in (1.0 - 1e-6, 1.0 + 1e-6):
                near = correlations_at(
                    params(lam, temperature, sites, sites // 4, "gibbs")
                )
                for value, expected in zip(near, at, strict=True):
                    assert abs(value - expected) < 2e-5

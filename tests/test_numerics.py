import tracemalloc

import mpmath
import numpy as np
import pytest

from critent import ising2d, tfim
from critent.errors import ConvergenceError
from critent.numerics import (
    fourier_window,
    toeplitz_determinant,
)
from oracles import ising_symbol, levinson_minors


def cofactor_determinant(matrix):
    """Independent oracle: recursive cofactor expansion along the first row."""
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    if n == 1:
        return complex(matrix[0, 0])
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(matrix, 0, axis=0), j, axis=1)
        total += (-1) ** j * matrix[0, j] * cofactor_determinant(minor)
    return total


def critical_phase_symbol(theta):
    """Limiting critical symbol, phase of 1 - e^{-i theta}; midpoint 0 at
    the jump.  Closed form e^{i(pi - theta)/2} for theta in (0, 2pi)."""
    z = 1.0 - np.exp(-1j * np.asarray(theta, dtype=float))
    mag = np.abs(z)
    return np.where(mag == 0, 0.0, z / np.where(mag == 0, 1.0, mag))


class TestFourierCoefficient:
    """The quadrature window, the reference for closed-form coefficients."""

    def test_constant_symbol(self):
        one = lambda th: np.ones_like(th, dtype=complex)
        a_0, a_1 = fourier_window(one, 1)[1:]
        assert a_0 == pytest.approx(1.0, abs=1e-12)
        assert abs(a_1) < 1e-12

    def test_critical_symbol_closed_form(self):
        # analytically a_n = 2/(pi (1-2n)); a_0 = 2/pi ~ 0.636620
        _, a0, a1 = fourier_window(critical_phase_symbol, 1)
        assert a0.real == pytest.approx(2 / np.pi, abs=1e-9)
        assert abs(a0.imag) < 1e-12
        assert a1.real == pytest.approx(-2 / np.pi, abs=1e-9)

    def test_high_temperature_symbol(self):
        # at T = 1e6 the symbol degenerates to -e^{-i theta} on the
        # correlation-positive branch: a_1 = -1, a_0 = 0
        _, a0, a1 = fourier_window(ising_symbol(1e6), 1)
        assert a1.real == pytest.approx(-1.0, abs=1e-6)
        assert abs(a0) < 1e-6

    def test_grid_validation(self):
        one = lambda th: np.ones_like(th, dtype=complex)
        with pytest.raises(ValueError):
            fourier_window(one, 0, grid_points=1000)  # not a power of two
        with pytest.raises(ValueError):
            fourier_window(one, 0, grid_points=8)

    def test_nonconvergence_near_critical(self):
        # just off criticality the symbol varies on a scale the capped grid
        # cannot resolve
        symbol = ising_symbol(ising2d.critical_temperature() + 1e-7)
        with pytest.raises(ConvergenceError) as err:
            fourier_window(symbol, 40, max_points=1 << 16)
        assert err.value.estimates is not None

    def test_accepted_value_stable_under_doubling(self):
        # doubling past the accepted resolution moves a_n by < 1e-10
        symbol = ising_symbol(1.7)
        coarse = fourier_window(symbol, 3, grid_points=4096)[6]  # a_3
        fine = fourier_window(symbol, 3, grid_points=16384)[6]
        assert abs(coarse - fine) < 1e-10


class TestIsingSymbol:
    @pytest.mark.parametrize(
        "temperature", [1.5, ising2d.critical_temperature(), 3.0]
    )
    def test_unimodular(self, temperature):
        symbol = ising_symbol(temperature)
        theta = 2 * np.pi * np.arange(1024) / 1024
        values = np.abs(symbol(theta))
        # at criticality the single jump point theta = 0 carries the
        # midpoint value 0; every other grid point is a pure phase
        mask = values > 0.5
        assert np.all(np.abs(values[mask] - 1.0) < 1e-12)
        assert mask[1:].all()

    def test_window_matches_closed_form_at_tc(self):
        closed = ising2d.coefficient_window(ising2d.critical_temperature(), 20)
        quad = fourier_window(critical_phase_symbol, 20)
        for n in range(-20, 21):
            exact = 2 / (np.pi * (1 - 2 * n))
            assert closed[n + 20] == pytest.approx(exact, abs=1e-12)
            assert quad[n + 20].real == pytest.approx(exact, abs=1e-8)

    def test_coefficients_essentially_real(self):
        for temperature in (1.5, 2.0, 3.0):
            window = ising2d.coefficient_window(temperature, 10)
            assert window.dtype == np.float64 and window.shape == (21,)


class TestToeplitzDeterminant:
    def test_dim_one(self):
        assert toeplitz_determinant(np.array([[2.5]]), 1, sizes=[1])[0, 0] == pytest.approx(2.5)

    def test_diagonal_sequence(self):
        c = 0.37
        window = np.where(np.arange(-5, 6) == 0, c, 0.0)
        for dim in (1, 2, 4, 6):
            assert toeplitz_determinant([window], dim, sizes=[dim])[0, 0] == \
                pytest.approx(c**dim, rel=1e-12)

    def test_against_cofactor_oracle(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(11)
        dim = 6
        matrix = np.array([[vals[i - j + 5] for j in range(dim)] for i in range(dim)])
        oracle = cofactor_determinant(matrix).real
        assert toeplitz_determinant([vals], dim, sizes=[dim])[0, 0] == \
            pytest.approx(oracle, rel=1e-10)

    def test_row_shift(self):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal(9)
        for shift in (-1, 0, 1):
            dim = 3
            matrix = np.array(
                [[vals[i - j + shift + 4] for j in range(dim)] for i in range(dim)]
            )
            assert toeplitz_determinant([vals], dim, shift, sizes=[dim])[0, 0] == pytest.approx(
                cofactor_determinant(matrix).real, rel=1e-10
            )

    def test_matches_dense_determinant_many_trials(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            dim = int(rng.integers(1, 9))
            vals = rng.standard_normal(2 * dim - 1)
            matrix = np.array(
                [[vals[i - j + dim - 1] for j in range(dim)] for i in range(dim)]
            )
            dense = np.linalg.det(matrix)
            toep = toeplitz_determinant([vals], dim, sizes=[dim])[0, 0]
            assert toep == pytest.approx(dense, rel=1e-10, abs=1e-12)

    def test_domain_errors(self):
        window = np.array([[0.5, 1.0, 0.5]])
        with pytest.raises(ValueError):
            toeplitz_determinant(window, 0, sizes=[1])
        with pytest.raises(ValueError):
            toeplitz_determinant(window, 3, sizes=[3])  # needs indices +-2
        with pytest.raises(ValueError):
            toeplitz_determinant(window, 2, row_shift=1, sizes=[2])  # needs a_2
        windows = np.random.default_rng(11).standard_normal((5, 33))
        # the window holds a_n for |n| <= 16: shifts -1 and 1 fit, 3 does not
        for shift in (-1, 1):
            assert toeplitz_determinant(windows, 16, row_shift=shift, sizes=[16]).shape == (5, 1)
        with pytest.raises(ValueError, match=r"needs \[-12, 18\]"):
            toeplitz_determinant(windows, 16, row_shift=3, sizes=[16])
        with pytest.raises(ValueError, match=r"sizes must lie in \[1, 8\]"):
            toeplitz_determinant(windows, 8, sizes=[0, 4])
        with pytest.raises(ValueError, match=r"sizes must lie in \[1, 8\]"):
            toeplitz_determinant(windows, 8, sizes=[9])

    def test_even_window_width(self):
        # a_n for |n| <= n_max takes 2 n_max + 1 entries; 4 cannot be read
        with pytest.raises(ValueError, match="window width 4 is not odd"):
            toeplitz_determinant([[1.0, 2.0, 3.0, 4.0]], 2, sizes=[2])

    def test_lone_window_rejected(self):
        # one window is a one-row stack; a 1-D array is not read as one
        with pytest.raises(ValueError, match="windows must be a 2-D stack"):
            toeplitz_determinant(np.array([0.5, 1.0, 0.5]), 1, sizes=[1])

    def test_no_sizes(self):
        with pytest.raises(ValueError, match="sizes must name at least one minor"):
            toeplitz_determinant(np.random.default_rng(3).standard_normal((2, 9)), 4, sizes=[])


class TestToeplitzDeterminants:
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_stack_equals_single_determinants_bit_for_bit(self, shift):
        rng = np.random.default_rng(9)
        r = 16
        windows = rng.standard_normal((7, 2 * r + 1))
        for dim in (1, r // 2, r):
            stacked = toeplitz_determinant(windows, dim, row_shift=shift, sizes=[dim])[:, 0]
            single = [toeplitz_determinant(row[None], dim, row_shift=shift, sizes=[dim])[0, 0]
                      for row in windows]
            assert stacked.tolist() == single

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_minors_equal_smaller_calls_bit_for_bit(self, shift):
        windows = np.random.default_rng(12).standard_normal((6, 2 * 17 + 1))
        sizes = range(1, 17)
        stacked = toeplitz_determinant(windows, 16, row_shift=shift, sizes=sizes)
        alone = toeplitz_determinant(windows[2:3], 16, row_shift=shift, sizes=sizes)
        assert stacked.shape == (6, 16) and alone.shape == (1, 16)
        assert alone[0].tolist() == stacked[2].tolist()
        for k in sizes:
            narrow = windows[:, 17 - (k + 1):17 + k + 2]  # a_n for |n| <= k + 1
            assert toeplitz_determinant(narrow, k, row_shift=shift, sizes=[k])[:, 0].tolist() == \
                stacked[:, k - 1].tolist()
            assert toeplitz_determinant(narrow[2:3], k, row_shift=shift, sizes=[k])[0, 0] == \
                alone[0, k - 1]

    @pytest.mark.parametrize("rows", [1, 2, 3, 102])
    def test_row_minors_do_not_depend_on_the_stack(self, rows):
        # each dot product is one einsum pass; numpy's einsum sums a single
        # column in another order than two or more, so a lone row is
        # doubled and keeps the minors it has in any stack
        dim = 256
        couplings = np.concatenate([np.arange(0.9, 1.15 + 1e-12, 0.005) + d
                                    for d in (1e-4, -1e-4)])
        windows = tfim.coefficient_window(couplings, 0.0, 2 * dim, dim)
        sizes = range(1, dim + 1)
        pick = np.linspace(0, len(couplings) - 1, rows).astype(int)
        for shift in (-1, 1):
            whole = toeplitz_determinant(windows, dim, row_shift=shift, sizes=sizes)
            part = toeplitz_determinant(windows[pick], dim, row_shift=shift, sizes=sizes)
            assert part.tolist() == whole[pick].tolist()
            if rows == 102:
                # the multiply-then-sum recursion gives the same floats
                assert whole.tolist() == levinson_minors(windows, shift, dim).tolist()

    def test_no_dense_stack_is_built(self, monkeypatch):
        rows, dim = 4, 512
        windows = np.array([tfim.coefficient_window(lam, 0.0, 2 * dim, dim)
                            for lam in np.linspace(0.6, 1.4, rows)])
        monkeypatch.setattr(np.linalg, "slogdet", None)  # no row breaks down
        tracemalloc.start()
        try:
            for shift in (-1, 1):
                toeplitz_determinant(windows, dim, row_shift=shift, sizes=range(1, dim + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows * dim * dim * 8 / 16  # (rows, dim, dim) is 8 MB

    def test_breakdown_rows_take_one_slogdet_per_size(self, monkeypatch):
        # at lambda = 0 the TFIM window is -delta_n0: both shifted matrices
        # have a zero diagonal, so the first pivot is 0 and the row breaks
        # down at size 2; each of its minors is triangular with a zero
        # diagonal, exactly 0, and takes no slogdet call
        couplings = [0.0, 0.5, 1.0]
        windows = np.array([tfim.coefficient_window(lam, 0.0, 1000, 50) for lam in couplings])
        calls, slogdet = [], np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append(a.shape) or slogdet(a))
        minors = [toeplitz_determinant(windows, 50, row_shift=shift, sizes=range(1, 51))
                  for shift in (-1, 1)]
        assert calls == []
        monkeypatch.undo()
        for shift, shifted in zip((-1, 1), minors):
            assert shifted[0].tolist() == [lu_minor(windows[0], k, shift) for k in range(1, 51)]
            np.testing.assert_allclose(
                shifted[1:], [[lu_minor(row, k, shift) for k in range(1, 51)]
                              for row in windows[1:]], rtol=1e-10, atol=1e-12)

    def test_zero_pivot_off_triangular_goes_to_lu(self, monkeypatch):
        # t_0 = 0 breaks both rows down at size 2.  With t_{+-1} != 0 no
        # minor is triangular, so every size from 2 on is one slogdet; with
        # t_{-1} = 0 too, only the 2 x 2 minor is triangular (exactly 0)
        # and the larger ones go to LU as well
        dim = 12
        rng = np.random.default_rng(3)
        windows = rng.uniform(0.5, 1.5, (2, 2 * dim - 1))  # t_n at index n + dim - 1
        windows[:, dim - 1] = 0.0
        windows[1, dim - 2] = 0.0
        calls, slogdet = [], np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append(a.shape) or slogdet(a))
        minors = toeplitz_determinant(windows, dim, sizes=range(1, dim + 1))
        assert calls == [(1, 2, 2)] + [(2, k, k) for k in range(3, dim + 1)]
        monkeypatch.undo()
        assert minors[1, 1] == 0.0
        assert minors.tolist() == lu_minors(windows, 0, range(1, dim + 1)).tolist()
        # one stack of a triangular row (t_n = 0 for every n <= 0), a row
        # with t_0 = 0 alone and an intact row: only the middle row takes
        # slogdet calls, one per size from 2 on
        windows = rng.uniform(0.5, 1.5, (3, 2 * dim - 1))
        windows[0, :dim] = 0.0
        windows[1, dim - 1] = 0.0
        calls = []
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append(a.shape) or slogdet(a))
        minors = toeplitz_determinant(windows, dim, sizes=range(1, dim + 1))
        assert calls == [(1, k, k) for k in range(2, dim + 1)]
        monkeypatch.undo()
        lu = lu_minors(windows, 0, range(1, dim + 1))
        assert minors[0].tolist() == [0.0] * dim == lu[0].tolist()
        assert minors[1].tolist() == lu[1].tolist()
        np.testing.assert_allclose(minors[2], lu[2], rtol=1e-10)

    def test_ising_breakdown_above_tc_equals_slogdet(self, monkeypatch):
        # at T = 5 the forward vector grows like sinh^-2(2/T)^k and overflows
        # near k = 395, where the minors reach the subnormal range
        window = ising2d.coefficient_window(5.0, 799)
        calls, slogdet = [], np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append(a.shape) or slogdet(a))
        sizes = [100, 300, 390, 400, 500, 800]
        minors = toeplitz_determinant([window], 800, sizes=sizes)[0]
        broken = [shape[-1] for shape in calls]
        monkeypatch.undo()
        assert 800 in broken and 100 not in broken
        lu = [lu_minor(window, k) for k in sizes]
        for k, value, reference in zip(sizes, minors, lu):
            if k in broken:
                assert value == reference
            else:
                assert value == pytest.approx(reference, rel=1e-10, abs=1e-300)

    def test_too_narrow_window(self):
        windows = np.ones((2, 5))  # a_n for |n| <= 2
        with pytest.raises(ValueError, match=r"needs \[-3, 3\]"):
            toeplitz_determinant(windows, 4, sizes=[4])
        with pytest.raises(ValueError, match=r"needs \[-2, 4\]"):
            toeplitz_determinant(windows, 4, row_shift=1, sizes=[4])
        with pytest.raises(ValueError, match="dim must be >= 1"):
            toeplitz_determinant(windows, 0, sizes=[1])
        assert toeplitz_determinant(windows, 2, row_shift=1, sizes=[2]).shape == (2, 1)


def lu_minor(window, k, shift=0):
    """The k x k determinant of a_{i-j+shift} by np.linalg.slogdet (pivoted LU)."""
    n_max = (len(window) - 1) // 2
    idx = np.subtract.outer(np.arange(k), np.arange(k)) + shift + n_max
    sign, logabs = np.linalg.slogdet(window[idx])
    return float(sign * np.exp(logabs))


def lu_minors(windows, shift, sizes):
    """(rows, sizes) array of lu_minor over a stack of windows."""
    return np.array([[lu_minor(row, k, shift) for k in sizes] for row in windows])


class TestLevinsonAgainstReferences:
    """The recursion against pivoted LU on the grids the CLI evaluates, and
    against 40-digit determinants of the same float windows."""

    @pytest.mark.parametrize("sites", [32, 64, 128, 256, 512])
    def test_far_pair_grid(self, sites):
        coarse = np.arange(0.9, 1.15 + 1e-12, 0.005)
        couplings = np.concatenate([coarse - 1e-4, coarse + 1e-4])
        r = sites // 2
        windows = np.array([tfim.coefficient_window(lam, 0.0, sites, r) for lam in couplings])
        for shift in (-1, 1):
            np.testing.assert_allclose(
                toeplitz_determinant(windows, r, row_shift=shift, sizes=[r]),
                lu_minors(windows, shift, [r]), rtol=1e-10, atol=1e-12)

    def test_tfim_sweep_grid(self):
        windows = np.array([tfim.coefficient_window(lam, 0.0, 1000, 50)
                            for lam in np.linspace(0.0, 2.0, 11)])
        sizes = range(1, 51)
        for shift in (-1, 1):
            np.testing.assert_allclose(
                toeplitz_determinant(windows, 50, row_shift=shift, sizes=sizes),
                lu_minors(windows, shift, sizes), rtol=1e-10, atol=1e-12)

    def test_ising_sweep_grid(self):
        windows = np.array([ising2d.coefficient_window(t, 49)
                            for t in np.linspace(1.5, 3.5, 21)])
        sizes = range(1, 51)
        np.testing.assert_allclose(toeplitz_determinant(windows, 50, sizes=sizes),
                                   lu_minors(windows, 0, sizes), rtol=1e-10, atol=1e-12)

    def test_forty_digit_determinant(self):
        window = tfim.coefficient_window(1.1, 0.0, 128, 64)
        for shift in (-1, 1):
            with mpmath.workdps(40):
                exact = mpmath.det(mpmath.matrix(
                    [[window[i - j + shift + 64] for j in range(64)] for i in range(64)]))
            value = toeplitz_determinant([window], 64, row_shift=shift, sizes=[64])[0, 0]
            assert abs(value - exact) <= 1e-12 * abs(exact)


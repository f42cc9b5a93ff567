import json

import numpy as np
import pytest

from critent import analysis, density, dimer, ising2d, tfim
from critent.analysis import (
    SweepRecord,
    log_poly_fit,
    power_law_fit,
    records_to_csv,
    records_to_json,
    sweep,
)
from critent.errors import ConvergenceError
from oracles import derivative_at, records_csv


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call; returns the
    list of records."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestCentralDerivative:
    def test_step_halving_consistency(self):
        # just off the critical coupling, where the curvature stays bounded
        def mi_of_coupling(lam):
            return tfim.correlation_mi(
                tfim.TfimParams(coupling=lam, temperature=0.0, sites=100, separation=1)
            )

        d1 = derivative_at(mi_of_coupling, 0.95, 1e-3)
        d2 = derivative_at(mi_of_coupling, 0.95, 5e-4)
        assert abs(d1 - d2) < 1e-4


class TestPowerLawFit:
    def test_exact_power_law(self):
        xs = np.linspace(1.0, 5.0, 10)
        fit = power_law_fit(xs, 3.0 * xs**2)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-12)
        assert fit.residual_norm < 1e-12

    def test_synthetic_critical_decay(self):
        ns = np.arange(10, 101, 10, dtype=float)
        fit = power_law_fit(ns, 0.645 * ns**-0.25)
        assert fit.coefficients[0] == pytest.approx(-0.25, abs=1e-10)
        assert fit.amplitude == pytest.approx(0.645, abs=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            power_law_fit([1, 2, 3], [1, 2, 3])  # too few
        with pytest.raises(ValueError):
            power_law_fit([1, 2, 3, -4], [1, 2, 3, 4])


class TestLogPolyFit:
    def test_log_linear(self):
        xs = np.geomspace(2, 200, 12)
        fit = log_poly_fit(xs, 2.0 + 5.0 * np.log(xs), degree=1)
        assert fit.kind == "log_linear"
        assert fit.coefficients == pytest.approx((2.0, 5.0), abs=1e-10)
        assert fit.residual_norm < 1e-12

    def test_log_cubic(self):
        xs = np.geomspace(2, 200, 12)
        fit = log_poly_fit(xs, 1.0 + 0.3 * np.log(xs) ** 3, degree=3)
        assert fit.kind == "log_cubic"
        assert fit.coefficients[1] == pytest.approx(0.3, abs=1e-10)

    def test_full_design_flag(self):
        xs = np.geomspace(2, 200, 12)
        ys = 1.0 + 0.5 * np.log(xs) + 0.3 * np.log(xs) ** 3
        restricted = log_poly_fit(xs, ys, degree=3)
        full = log_poly_fit(xs, ys, degree=3, full=True)
        assert full.residual_norm < restricted.residual_norm
        assert full.coefficients[1] == pytest.approx(0.3, abs=1e-9)

    def test_point_count_guard(self):
        with pytest.raises(ValueError):
            log_poly_fit([1, 2, 3, 4], [1, 2, 3, 4], degree=3)
        with pytest.raises(ValueError):
            log_poly_fit([1, 2], [1, 2], degree=1)


class TestFitInputs:
    FITS = [
        lambda xs, ys: power_law_fit(xs, ys),
        lambda xs, ys: log_poly_fit(xs, ys, degree=1),
        lambda xs, ys: log_poly_fit(xs, ys, degree=3),
        lambda xs, ys: log_poly_fit(xs, ys, degree=3, full=True),
    ]

    NAMES = ["power", "log", "logcube", "logcube-full"]

    @pytest.mark.parametrize("fit", FITS, ids=NAMES)
    @pytest.mark.parametrize("x", [1.0, 7.0])
    def test_equal_x_values_do_not_fix_a_law(self, fit, x):
        # lstsq's min-norm answer to a rank-1 design would report slope 0
        with pytest.raises(ValueError, match="rank 1 < [24] columns"):
            fit([x] * 6, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    @pytest.mark.parametrize("fit", FITS, ids=NAMES)
    @pytest.mark.parametrize("axis, value", [
        ("x", float("nan")), ("x", float("inf")), ("y", float("nan")), ("y", -float("inf")),
    ])
    def test_non_finite_coordinate_is_named(self, fit, axis, value):
        xs, ys = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        (xs if axis == "x" else ys)[3] = value
        with pytest.raises(ValueError, match=rf"finite coordinates: {axis}\[3\] = {value}"):
            fit(xs, ys)


def predict(fit, xs):
    """The fitted law evaluated at xs."""
    if fit.kind == "power_law":
        return fit.amplitude * xs ** fit.coefficients[0]
    a, b = fit.coefficients
    return a + b * np.log(xs) ** (1 if fit.kind == "log_linear" else 3)


class TestFitResultRoundTrip:
    def test_synthesize_and_refit(self):
        xs = np.geomspace(1, 100, 10)
        for fit in (
            power_law_fit(xs, 1.7 * xs**-1.25),
            log_poly_fit(xs, 0.4 + 2.2 * np.log(xs), degree=1),
            log_poly_fit(xs, 0.4 + 0.05 * np.log(xs) ** 3, degree=3),
        ):
            ys = predict(fit, xs)
            if fit.kind == "power_law":
                refit = power_law_fit(xs, ys)
                assert refit.amplitude == pytest.approx(fit.amplitude, abs=1e-8)
            else:
                refit = log_poly_fit(xs, ys, degree=1 if fit.kind == "log_linear" else 3)
            assert np.allclose(refit.coefficients, fit.coefficients, atol=1e-8)


class TestSweep:
    def test_dimer_sweep_monotone(self):
        records = sweep("dimer", axes={"T": np.linspace(0.1, 10, 100)})
        assert len(records) == 100
        mis = [r.mi for r in records]
        assert all(a > b for a, b in zip(mis, mis[1:]))

    def test_record_identity_enforced(self, monkeypatch):
        # one point of an evaluated grid off MI = S_i + S_j - S_ij: the sweep
        # raises, naming that point, instead of writing an error row
        entropies = tfim.entropies

        def off_identity(*args):
            s_i, s_ij, mi = entropies(*args)
            mi = mi.copy()
            mi[1, 0] += 1e-6
            return s_i, s_ij, mi

        monkeypatch.setattr(tfim, "entropies", off_identity)
        with pytest.raises(AssertionError, match=(
            r"MI identity violated by 1\.000e-06 at "
            r"SweepRecord\(model='tfim', T=0\.0, lam=1\.0, N=12, r=1, ")):
            sweep("tfim", axes={"lam": [0.5, 1.0], "r": [1, 2]}, fixed={"N": 12, "T": 0.0})
        # a negative MI fails even on the identity
        monkeypatch.setattr(dimer, "entropies", lambda ts: (
            np.zeros(len(ts)), np.full(len(ts), 1e-3), np.full(len(ts), -1e-3)))
        with pytest.raises(AssertionError, match=r"by 0\.000e\+00 at SweepRecord\(model='dimer', T=2\.0,"):
            sweep("dimer", axes={"T": [2.0, 3.0]})

    def test_nan_grid_passes_identity(self, monkeypatch):
        # NaN compares false both ways, so an all-NaN grid gives NaN rows
        monkeypatch.setattr(ising2d, "entropies", lambda ts, ns, ensemble: (
            np.full((len(ts), len(ns)), np.nan),) * 3)
        records = sweep("ising2d", axes={"T": [1.8, 3.0], "N": [1, 2, 3]})
        assert len(records) == 6
        assert all(np.isnan([rec.s_i, rec.s_j, rec.s_ij, rec.mi]).all() for rec in records)
        assert {rec.tag for rec in records} == {"symmetric"}

    def test_one_identity_check_per_evaluated_grid(self, monkeypatch):
        checks = count_calls(monkeypatch, analysis, "_check_mi_identity")
        evaluated, entropies = [], tfim.entropies

        def counted(*args):
            result = entropies(*args)
            evaluated.append(args)
            return result

        monkeypatch.setattr(tfim, "entropies", counted)
        records = sweep("tfim", axes={"lam": [0.5, 1.0, 1.7], "r": [1, 2, 3, 4]},
                        fixed={"N": 12, "T": 0.0})
        assert len(records) == 12 and len(evaluated) == 1 and len(checks) == 1
        # the odd sector's coupling-1 row fails at T = 0: the grid and that
        # row's three points raise, the other two rows are evaluated
        evaluated.clear()
        checks.clear()
        records = sweep("tfim", axes={"lam": [0.5, 1.0, 1.5], "r": [1, 2, 3]},
                        fixed={"N": 12, "T": 0.0, "sector": "odd"})
        assert sum(rec.mi is None for rec in records) == 3
        assert len(evaluated) == 2 and len(checks) == 2

    def test_ising_sweep_shape_markers(self):
        records = sweep(
            "ising2d",
            axes={"T": [1.8, 2.3, 3.0], "N": [2, 30]},
        )
        by_point = {(r.T, r.N): r.mi for r in records}
        assert by_point[(1.8, 30)] > 0.3        # ordered plateau
        assert by_point[(3.0, 30)] < 1e-6       # hot collapse
        assert by_point[(2.3, 30)] < by_point[(2.3, 2)]  # critical decay in N

    def test_tfim_sweep_shape_markers(self):
        records = sweep(
            "tfim",
            axes={"lam": [0.2, 2.0], "r": [2, 20]},
            fixed={"N": 200, "T": 0.0},
        )
        by_point = {(r.lam, r.r): r.mi for r in records}
        assert by_point[(0.2, 20)] < 1e-8
        assert by_point[(2.0, 20)] > 0.4

    def test_error_rows_do_not_abort(self):
        records = sweep(
            "tfim",
            axes={"lam": [0.5], "r": [1, 7]},  # r = 7 exceeds half ring
            fixed={"N": 12, "T": 0.0},
        )
        assert len(records) == 2
        assert records[0].mi is not None
        assert records[1].mi is None
        assert records[1].tag.startswith("error:")

    def test_unknown_model_and_axis(self):
        with pytest.raises(ValueError):
            sweep("xy", axes={"T": [1.0]})
        with pytest.raises(ValueError):
            sweep("dimer", axes={"beta": [1.0]})

    def test_axes_must_be_the_grid_axes(self):
        with pytest.raises(ValueError, match="tfim sweeps the grid axes lam, r"):
            sweep("tfim", axes={"T": [0.0], "lam": [0.5, 1.0], "r": [1, 2]},
                  fixed={"N": 12})
        with pytest.raises(ValueError, match="ising2d sweeps the grid axes T, N"):
            sweep("ising2d", axes={"T": [2.0], "N": [1, 2], "r": [1]})
        with pytest.raises(ValueError, match="ising2d sweeps the grid axes T, N"):
            sweep("ising2d", axes={"T": [2.0]}, fixed={"N": 1})

    def test_dimer_sweep_is_one_batch(self, monkeypatch):
        kernel = count_calls(monkeypatch, density, "x_state_entropies")
        ts = np.linspace(0.1, 10, 100)
        records = sweep("dimer", axes={"T": ts})
        assert len(kernel) == 1
        assert [rec.T for rec in records] == list(ts)
        assert all(rec.mi == dimer.entropies([rec.T])[2][0] for rec in records)

    def test_failing_dimer_grid_is_redone_point_by_point(self):
        ts = [0.0, 0.5, float("nan"), 2.0, 1e6]
        records = sweep("dimer", axes={"T": ts})
        assert len(records) == 5
        errors = [rec for rec in records if rec.tag.startswith("error")]
        assert len(errors) == 1 and errors[0] is records[2]
        assert records[2].tag == "error: temperature must be >= 0"
        assert records[2].mi is None
        for rec in records[:2] + records[3:]:
            assert rec.tag == ""
            assert rec.mi == dimer.entropies([rec.T])[2][0]

    @pytest.mark.parametrize("sector, temperature", [
        ("even", 0.0), ("even", 0.6), ("odd", 0.6), ("gibbs", 0.6), ("gibbs", 1.5),
    ])
    def test_tfim_batches_equal_single_points(self, sector, temperature):
        axes = {"lam": [0.5, 1.0, 1.7], "r": [1, 2, 3, 4, 5, 6]}
        fixed = {"N": 12, "T": temperature, "sector": sector}
        records = sweep("tfim", axes=axes, fixed=fixed)
        assert len(records) == 18
        for rec in records:
            p = tfim.TfimParams(rec.lam, temperature, 12, rec.r, sector)
            s_i, s_ij, mi = tfim.entropies([rec.lam], temperature, 12, [rec.r], sector)
            assert (rec.s_i, rec.s_ij, rec.mi) == (s_i[0, 0], s_ij[0, 0], mi[0, 0])
            assert rec.mi == tfim.correlation_mi(p)

    @pytest.mark.parametrize("ensemble", ["symmetric", "broken"])
    def test_ising_batches_equal_single_points(self, ensemble):
        axes = {"T": [1.8, 2.3, 3.0], "N": [1, 2, 5, 9, 20]}
        records = sweep("ising2d", axes=axes, fixed={"ensemble": ensemble})
        assert len(records) == 15
        for rec in records:
            s_i, s_ij, mi = ising2d.entropies([rec.T], [rec.N], ensemble)
            assert (rec.s_i, rec.s_ij, rec.mi) == (s_i[0, 0], s_ij[0, 0], mi[0, 0])

    def test_failing_batch_is_redone_point_by_point(self, monkeypatch):
        records = sweep("tfim", axes={"lam": [0.5], "r": [2, 7]},
                        fixed={"N": 12, "T": 0.0})
        assert records[0].mi == tfim.correlation_mi(tfim.TfimParams(0.5, 0.0, 12, 2))
        assert records[1].tag == "error: separation must be in [1, sites/2]"
        # a corrupted F_0 seed makes every window fail its Parseval check;
        # each error row names its own point's window, not the batch's
        elliptic = ising2d._elliptic
        monkeypatch.setattr(ising2d, "_elliptic",
                            lambda x: (2.0 * elliptic(x)[0], elliptic(x)[1]))
        t = 2.26919
        records = sweep("ising2d", axes={"T": [t], "N": [1, 2]})
        for rec in records:
            with pytest.raises(ConvergenceError) as failure:
                ising2d.entropies([t], [rec.N])
            assert rec.tag == f"error: {failure.value}"
        assert records[0].tag != records[1].tag

    def test_tfim_grid_is_one_batch(self, monkeypatch):
        kernel = count_calls(monkeypatch, density, "x_state_entropies")
        determinant = count_calls(monkeypatch, tfim, "toeplitz_determinant")
        slogdet = count_calls(monkeypatch, np.linalg, "slogdet")
        records = sweep("tfim", axes={"lam": [0.5, 1.0, 1.7], "r": [1, 2, 3, 4, 5, 6]},
                        fixed={"N": 12, "T": 0.0})
        assert len(records) == 18 and all(rec.mi is not None for rec in records)
        # one call (one recursion) per shift over the grid gives every
        # separation; no row breaks down, so no pivoted LU
        assert len(determinant) == 2 and len(slogdet) == 0
        assert len(kernel) == 1

    def test_gibbs_grid_is_one_batch(self, monkeypatch):
        kernel = count_calls(monkeypatch, density, "x_state_entropies")
        slogdet = count_calls(monkeypatch, np.linalg, "slogdet")
        ifft = count_calls(monkeypatch, np.fft, "ifft")
        records = sweep("tfim", axes={"lam": [0.5, 1.0, 1.7], "r": [1, 2, 3, 4, 5, 6]},
                        fixed={"N": 12, "T": 0.5, "sector": "gibbs"})
        assert len(records) == 18 and all(rec.mi is not None for rec in records)
        # the plain and twisted windows of every coupling: one stacked FFT
        # per momentum grid
        assert len(ifft) == 2
        # xx and yy share one call per separation; zz (every separation)
        # and mz are one call each
        assert len(slogdet) == 6 + 2
        assert len(kernel) == 1

    def test_ising_grid_is_one_batch(self, monkeypatch):
        kernel = count_calls(monkeypatch, density, "x_state_entropies")
        determinant = count_calls(monkeypatch, ising2d, "toeplitz_determinant")
        slogdet = count_calls(monkeypatch, np.linalg, "slogdet")
        records = sweep("ising2d", axes={"T": [1.8, 2.3, 3.0], "N": [1, 2, 5, 9, 20]})
        assert len(records) == 15 and all(rec.mi is not None for rec in records)
        assert len(determinant) == 1 and len(slogdet) == 0  # one recursion, every N
        assert len(kernel) == 1

    def test_failing_grid_is_redone_row_by_row(self, monkeypatch):
        # at T = 0 the odd sector's phi = 0 mode is gapless at coupling 1
        # only: that row fails, the other two rows are one kernel call each
        kernel = count_calls(monkeypatch, density, "x_state_entropies")
        records = sweep("tfim", axes={"lam": [0.5, 1.0, 1.5], "r": [1, 2, 3]},
                        fixed={"N": 12, "T": 0.0, "sector": "odd"})
        assert len(kernel) == 2
        assert [(rec.lam, rec.r) for rec in records] == [
            (lam, r) for lam in (0.5, 1.0, 1.5) for r in (1, 2, 3)
        ]
        for rec in records:
            if rec.lam == 1.0:
                assert rec.mi is None
                assert rec.tag == "error: gapless momentum at T = 0 (odd sector at coupling 1)"
            else:
                assert rec.tag == "odd"
                point = tfim.TfimParams(rec.lam, 0.0, 12, rec.r, "odd")
                assert rec.mi == tfim.correlation_mi(point)
        # one temperature's window breaks Parseval's bound; only its row fails,
        # each error row with its own point's message
        elliptic, (bad_x, _) = ising2d._elliptic, ising2d._modulus(2.3)
        monkeypatch.setattr(ising2d, "_elliptic", lambda x: (
            (2.0 * elliptic(x)[0], elliptic(x)[1]) if x == bad_x else elliptic(x)))
        kernel = count_calls(monkeypatch, density, "x_state_entropies")
        records = sweep("ising2d", axes={"T": [1.8, 2.3, 3.0], "N": [1, 2, 5]})
        assert len(kernel) == 2
        assert len(records) == 9
        for rec in records:
            if rec.T == 2.3:
                with pytest.raises(ConvergenceError) as failure:
                    ising2d.entropies([rec.T], [rec.N])
                assert rec.tag == f"error: {failure.value}"
            else:
                assert rec.mi == ising2d.entropies([rec.T], [rec.N])[2][0, 0]
        assert len({rec.tag for rec in records if rec.T == 2.3}) == 3

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a domain error")

        monkeypatch.setattr(tfim, "entropies", broken)
        with pytest.raises(TypeError, match="not a domain error"):
            sweep("tfim", axes={"lam": [0.5], "r": [1, 2]}, fixed={"N": 12, "T": 0.0})


class TestSerialization:
    # hand-built rows: None fields, int N and r, floats at 12 significant
    # digits, -0.0, a dimer row and an error row with a NaN temperature
    RECORDS = [
        SweepRecord("dimer", T=0.5, s_i=1.0, s_j=1.0, s_ij=0.25, mi=1.75),
        SweepRecord("ising2d", T=2.269185314213022, N=5, s_i=0.9999999999996,
                    s_j=0.9999999999996, s_ij=1.9999999999992, mi=1.2345678901234567e-20,
                    tag="broken"),
        SweepRecord("tfim", T=0.0, lam=1 / 3, N=12, r=3, s_i=-0.0, s_j=-0.0,
                    s_ij=-0.0, mi=0.0, tag="even"),
        SweepRecord("tfim", T=float("nan"), lam=0.5, N=12, r=7,
                    tag="error: temperature must be >= 0"),
    ]

    def test_csv_contract(self):
        assert records_to_csv(self.RECORDS) == (
            "# T in units of the Heisenberg coupling\n"
            "# T in units of Ising coupling; N in units of sqrt(2) lattice constant\n"
            "# lambda: Ising coupling in units of the transverse field; r in lattice constants\n"
            "model,T,lambda,N,r,S_i,S_j,S_ij,MI,tag\n"
            "dimer,0.5,,,,1,1,0.25,1.75,\n"
            "ising2d,2.26918531421,,5,,1,1,2,1.23456789012e-20,broken\n"
            "tfim,0,0.333333333333,12,3,-0,-0,-0,0,even\n"
            "tfim,nan,0.5,12,7,,,,,error: temperature must be >= 0\n"
        )

    def test_json_contract(self):
        rows = [json.dumps(row, allow_nan=False)
                for row in records_to_json(self.RECORDS)["records"]]
        assert rows == [
            '{"model": "dimer", "T": 0.5, "lambda": null, "N": null, "r": null, '
            '"S_i": 1.0, "S_j": 1.0, "S_ij": 0.25, "MI": 1.75, "tag": ""}',
            '{"model": "ising2d", "T": 2.269185314213022, "lambda": null, "N": 5, '
            '"r": null, "S_i": 0.9999999999996, "S_j": 0.9999999999996, '
            '"S_ij": 1.9999999999992, "MI": 1.2345678901234567e-20, "tag": "broken"}',
            '{"model": "tfim", "T": 0.0, "lambda": 0.3333333333333333, "N": 12, "r": 3, '
            '"S_i": -0.0, "S_j": -0.0, "S_ij": -0.0, "MI": 0.0, "tag": "even"}',
            '{"model": "tfim", "T": null, "lambda": 0.5, "N": 12, "r": 7, "S_i": null, '
            '"S_j": null, "S_ij": null, "MI": null, "tag": "error: temperature must be >= 0"}',
        ]

    @pytest.mark.parametrize("model, axes, fixed", [
        ("dimer", {"T": np.linspace(0.1, 10.0, 100)}, None),
        ("ising2d", {"T": np.linspace(1.5, 3.5, 21), "N": range(1, 51)}, None),
        ("ising2d", {"T": np.linspace(1.5, 3.5, 21), "N": range(1, 51)},
         {"ensemble": "broken"}),
        ("tfim", {"lam": np.linspace(0.0, 2.0, 11), "r": range(1, 51)}, {"T": 0.0, "N": 1000}),
    ])
    def test_csv_matches_per_cell_reference_on_sweeps(self, model, axes, fixed):
        records = sweep(model, axes=axes, fixed=fixed)
        assert records_to_csv(records) == records_csv(records)

    def test_csv_cells_follow_objects_not_values(self):
        # each cell is formatted from its own object: -0.0 == 0.0 still
        # prints apart, shared objects print alike, and the float N = 12.0
        # breaks the run of int-N rows into a template of its own
        neg, pos, shared = float("-0.0"), float("0.0"), 1 / 3
        nan_a, nan_b = float("nan"), float("nan")
        records = [
            SweepRecord("tfim", T=pos, lam=shared, N=12, r=1, s_i=neg, s_j=neg,
                        s_ij=neg, mi=pos, tag="even"),
            SweepRecord("tfim", T=pos, lam=shared, N=12, r=2, s_i=pos, s_j=neg,
                        s_ij=pos, mi=neg, tag="even"),
            SweepRecord("tfim", T=neg, lam=1 / 3, N=12.0, r=3, s_i=neg, s_j=pos,
                        s_ij=shared, mi=shared, tag="even"),
            SweepRecord("tfim", T=nan_a, lam=0.5, N=12, r=7, tag="error: temperature must be >= 0"),
            SweepRecord("tfim", T=nan_b, lam=0.5, N=12, r=7, tag="error: temperature must be >= 0"),
            SweepRecord("dimer", T=0.5, s_i=neg, s_j=neg, s_ij=neg, mi=neg),
        ]
        text = records_to_csv(records)
        assert text == records_csv(records)
        assert text.splitlines()[2:] == [
            "model,T,lambda,N,r,S_i,S_j,S_ij,MI,tag",
            "tfim,0,0.333333333333,12,1,-0,-0,-0,0,even",
            "tfim,0,0.333333333333,12,2,0,-0,0,-0,even",
            "tfim,-0,0.333333333333,12,3,-0,0,0.333333333333,0.333333333333,even",
            "tfim,nan,0.5,12,7,,,,,error: temperature must be >= 0",
            "tfim,nan,0.5,12,7,,,,,error: temperature must be >= 0",
            "dimer,0.5,,,,-0,-0,-0,-0,",
        ]

    def test_csv_text_formats_cells_by_type(self):
        rows = [
            (None, 3, "a", 0.1, -0.0, float("nan"), float("-inf")),
            (None, 3, "a", 2.0, 1e-20, 123456789012345.0, 1 / 3),
            (1.0, None, 7, np.float64(-0.0), np.float64(2.5), np.int64(12), "b"),
            (None, 3, "a", 0.1, 0.0, float("inf"), 5),
        ]
        assert analysis.csv_text(["# comment", "h"], rows) == (
            "# comment\nh\n"
            ",3,a,0.1,-0,nan,-inf\n"
            ",3,a,2,1e-20,1.23456789012e+14,0.333333333333\n"
            "1,,7,-0,2.5,12,b\n"
            ",3,a,0.1,0,inf,5\n"
        )
        assert analysis.csv_text(["h"], []) == "h\n"

    def test_json_keys_are_the_csv_columns(self):
        (row,) = records_to_json(self.RECORDS[:1])["records"]
        assert tuple(row) == analysis.COLUMNS
        assert ",".join(analysis.COLUMNS) == analysis.CSV_HEADER

    def test_csv_of_no_records_is_the_header(self):
        assert records_to_csv([]) == records_csv([]) == analysis.CSV_HEADER + "\n"

    def test_csv_layout(self):
        records = sweep("dimer", axes={"T": [1.0, 2.0]})
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# T in units of the Heisenberg coupling")
        assert lines[1] == analysis.CSV_HEADER
        assert len(lines) == 4
        first = lines[2].split(",")
        assert first[0] == "dimer"
        assert first[2] == ""  # lambda not applicable
        # 12 significant digits
        assert len(first[8].replace(".", "").replace("-", "").lstrip("0")) <= 12

    def test_json_payload(self):
        records = sweep(
            "tfim", axes={"lam": [1.0], "r": [1]}, fixed={"N": 8, "T": 0.0}
        )
        payload = records_to_json(records)
        row = payload["records"][0]
        assert row["model"] == "tfim"
        assert row["lambda"] == 1.0
        assert row["N"] == 8
        assert row["tag"] == "even"


class TestScalingDrivers:
    def test_nn_scaling_small(self):
        result = analysis.tfim_nn_scaling(sites_list=(64, 128, 256, 512))
        assert result["fit"].coefficients[1] > 0
        assert result["relative_residual"] < 0.05

    def test_far_peak_location(self):
        lam, val = analysis.tfim_peak_far_derivative(32)
        assert 0.95 < lam < 1.1
        assert val > 0

    def test_far_peak_equals_per_point_reference(self):
        def reference(sites, step=analysis.SCALING_STEP):
            def deriv(lam):
                return derivative_at(
                    lambda x: tfim.correlation_mi(
                        tfim.TfimParams(x, 0.0, sites, sites // 2)
                    ),
                    lam, step,
                )

            coarse = np.arange(0.9, 1.15 + 1e-12, 0.005)
            best = int(np.argmax([deriv(lam) for lam in coarse]))
            fine = coarse[best] + np.arange(-4, 5) * 0.001
            fvals = [deriv(lam) for lam in fine]
            fbest = int(np.argmax(fvals))
            return float(fine[fbest]), float(fvals[fbest])

        assert analysis.tfim_peak_far_derivative(32) == reference(32)

    def test_nn_derivative_equals_per_point_reference(self):
        step = analysis.SCALING_STEP
        result = analysis.tfim_nn_scaling(sites_list=(64, 128, 256, 512))
        assert result["derivatives"] == [
            derivative_at(
                lambda lam: tfim.correlation_mi(tfim.TfimParams(lam, 0.0, n, 1)),
                1.0, step,
            )
            for n in (64, 128, 256, 512)
        ]

    def test_drivers_keep_validation_messages(self):
        with pytest.raises(ValueError, match="sites must be even and >= 4"):
            analysis.tfim_peak_far_derivative(33)
        with pytest.raises(ValueError, match="coupling must be >= 0"):
            analysis.tfim_peak_far_derivative(32, step=1.0)
        with pytest.raises(ValueError, match="coupling must be >= 0"):
            analysis.tfim_nn_scaling(sites_list=(64, 128, 256, 512), step=2.0)

    def test_derivative_exponent_is_one_batch(self, monkeypatch):
        kernel = count_calls(monkeypatch, density, "x_state_entropies")
        determinant = count_calls(monkeypatch, ising2d, "toeplitz_determinant")
        slogdet = count_calls(monkeypatch, np.linalg, "slogdet")
        result = analysis.ising2d_derivative_exponent("above", separation=10)
        assert len(kernel) == 1 and len(determinant) == 1 and len(slogdet) == 0
        monkeypatch.undo()
        tc = ising2d.critical_temperature()
        assert result["derivatives"] == [
            derivative_at(lambda T: ising2d.entropies([T], [10])[2][0, 0], tc + t,
                          min(1e-3, t / 10))
            for t in result["offsets"]
        ]

    def test_far_scaling_batches_each_stencil(self, monkeypatch):
        calls = {"kernel": 0, "slogdet": 0}
        kernel, slogdet = density.x_state_entropies, np.linalg.slogdet
        determinant = count_calls(monkeypatch, tfim, "toeplitz_determinant")

        def counted_kernel(*args):
            calls["kernel"] += 1
            return kernel(*args)

        def counted_slogdet(*args):
            calls["slogdet"] += 1
            return slogdet(*args)

        monkeypatch.setattr(density, "x_state_entropies", counted_kernel)
        monkeypatch.setattr(np.linalg, "slogdet", counted_slogdet)
        sites = (8, 12, 16, 24, 32)
        result = analysis.tfim_far_scaling(sites_list=sites)
        assert len(result["peaks"]) == len(sites)
        assert calls["kernel"] <= 2 * len(sites)
        # one call per shift for each stencil (coarse and fine) of each
        # ring; no row breaks down
        assert len(determinant) == 4 * len(sites)
        assert calls["slogdet"] == 0

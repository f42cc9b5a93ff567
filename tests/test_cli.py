import argparse
import json
import math
import re
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest

from critent import analysis, cli, density, exact, ising2d, tfim
from critent.analysis import FitResult
from test_analysis import count_calls

try:
    from importlib import resources

    def load_schema(name):
        ref = resources.files("critent") / "schemas" / name
        return json.loads(ref.read_text())
except Exception:  # pragma: no cover
    load_schema = None


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDimerCommand:
    def test_row_count_and_exit(self, capsys):
        code, out, _ = run_cli(
            ["dimer", "--t-min", "0.1", "--t-max", "10", "--t-count", "100",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        data = [l for l in lines if not l.startswith("#") and l != ""]
        assert data[0].split(",")[0] == "model"
        assert len(data) == 101  # header + 100 rows

    def test_byte_identical_runs(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["dimer", "--t-count", "20"]
        assert cli.main(base + ["--output", str(out_a)]) == 0
        assert cli.main(base + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestOracleCompare:
    def test_passes_at_zero_temperature(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "compare", "--n", "8", "--lambda", "1.0", "--t", "0",
             "--max-abs-diff", "1e-8", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["max_abs_diff"] <= 1e-8
        assert len(payload["rows"]) == 4

    def test_fails_with_tiny_threshold(self, capsys):
        code, _, err = run_cli(
            ["oracle", "compare", "--n", "6", "--lambda", "0.5", "--t", "0.5",
             "--max-abs-diff", "1e-12"],
            capsys,
        )
        assert code == 3

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "compare", "--n", "6", "--lambda", "1.0", "--t", "0",
             "--format", "csv", "--max-abs-diff", "1e-8"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "r,quantity,free_fermion,exact,abs_diff"

    def test_one_diagonalization_without_the_dense_hamiltonian(self, capsys, monkeypatch):
        def dense(*args):
            raise AssertionError("the oracle built the 2^N x 2^N Hamiltonian")

        blocks = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            # the 4 x 4 two-site states go through eigh in density as well;
            # every larger matrix is one (parity, momentum) block
            if a.shape[-1] > 4:
                blocks.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(exact, "build_hamiltonian", dense)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        code, out, _ = run_cli(
            ["oracle", "compare", "--n", "10", "--lambda", "1.0", "--t", "0.5",
             "--format", "json"],
            capsys,
        )
        assert code == 3  # the even-sector formulas miss the Gibbs state at T > 0
        assert len(json.loads(out)["rows"]) == 5
        # both parities at k = 2 pi m / N for m = 0..N/2 only: block -k is the
        # conjugate of block k
        assert len(blocks) == 2 * (10 // 2 + 1)

    def test_ground_state_from_one_block_eigenvector(self, capsys, monkeypatch):
        calls = {"eigh": [], "eigvalsh": []}

        def counted(name):
            solver = getattr(np.linalg, name)

            def call(a, *args, **kwargs):
                if a.shape[-1] > 4:  # a (parity, momentum) block
                    calls[name].append(a.shape)
                return solver(a, *args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        code, out, _ = run_cli(
            ["oracle", "compare", "--n", "10", "--lambda", "1.0", "--t", "0",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        assert len(json.loads(out)["rows"]) == 5
        # levels of every even block, eigenvectors of the ground block only
        assert len(calls["eigvalsh"]) == 10 // 2 + 1
        assert len(calls["eigh"]) == 1

    def test_each_side_is_one_grid_call(self, capsys, monkeypatch):
        # the free-fermion side is one tfim.correlations grid and the ED side
        # one exact.observables call, whatever the number of separations
        free = count_calls(monkeypatch, tfim, "correlations")
        ed = count_calls(monkeypatch, exact, "observables")
        code, out, _ = run_cli(["oracle", "compare", "--n", "8", "--t", "0"], capsys)
        assert code == 0
        assert out.splitlines()[-1].startswith("max,all,,,")
        assert len(free) == 1 and len(ed) == 1
        assert free[0][3] == ed[0][3] == [1, 2, 3, 4]

    @pytest.mark.parametrize("args, message", [
        pytest.param(["--n", str(sites)], "sites must be even and >= 4", id=str(sites))
        for sites in (3, 5, 9, 11)
    ] + [
        pytest.param(["--r", "0"], "separation must be in [1, sites/2]", id="r0"),
        pytest.param(["--r", "4", "--n", "6"], "separation must be in [1, sites/2]", id="r4-n6"),
        pytest.param(["--t", "-1"], "temperature must be >= 0", id="t-1"),
        pytest.param(["--t", "nan"], "temperature must be >= 0", id="tnan"),
    ])
    def test_odd_ring_fails_before_the_diagonalization(self, args, message, capsys, monkeypatch):
        # every input that exact.check_ring passes and tfim.check_grid
        # rejects: exit 1 with the free side's message, no block diagonalized
        def block_eigh(*args, **kwargs):
            raise AssertionError("the oracle diagonalized a block")

        monkeypatch.setattr(np.linalg, "eigh", block_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", block_eigh)
        argv = ["oracle", "compare", "--t", "0.5", *args]
        assert run_cli(argv, capsys) == (1, "", f"error: {message}\n")

    def test_infinite_coupling_fails_before_the_diagonalization(self, capsys, monkeypatch):
        # the ring's own check names the coupling; no block is built or
        # diagonalized, so no RuntimeWarning from inf * 0 either
        def block_eigh(*args, **kwargs):
            raise AssertionError("the oracle diagonalized a block")

        monkeypatch.setattr(np.linalg, "eigh", block_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", block_eigh)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_cli(["oracle", "compare", "--n", "6", "--lambda", "inf"], capsys)
        assert result == (1, "", "error: coupling must be finite\n")

    def test_checks_then_diagonalization_then_free_grid(self, capsys, monkeypatch):
        calls = []

        def recorded(owner, name):
            original = getattr(owner, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, call)

        for owner, name in ((exact, "check_ring"), (tfim, "check_grid"),
                            (exact, "observables"), (tfim, "correlations")):
            recorded(owner, name)
        code, _, _ = run_cli(["oracle", "compare", "--n", "6", "--t", "0.5"], capsys)
        assert code == 3
        # first calls only: observables checks the ring again, and
        # correlations the grid
        assert list(dict.fromkeys(calls)) == ["check_ring", "check_grid", "observables",
                                              "correlations"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_real_numbers_equal_the_library_table(self, fmt, capsys):
        # the library calls with the free side first: the report's bytes do
        # not depend on which side runs first
        sites, lam, temperature, seps = 8, 1.3, 0.5, [1, 2, 3, 4]
        mz, gxx, gyy, gzz, czz = tfim.correlations([lam], temperature, sites, seps)
        mi = density.two_site_entropies(mz[:, None], gxx, gyy, gzz, czz)[2]
        *oracle, energy = exact.observables(sites, lam, temperature, seps)
        free = [(float(mz[0]), *(float(v[0, k]) for v in (gxx, gyy, gzz)), float(mi[0, k]))
                for k in range(len(seps))]
        ed = [(float(oracle[0]), *(float(v[k]) for v in oracle[1:])) for k in range(len(seps))]
        diffs = [[abs(f - e) for f, e in zip(*pair)] for pair in zip(free, ed)]
        worst = max(max(d) for d in diffs)
        names = cli.ORACLE_QUANTITIES
        if fmt == "json":
            expected = dumped({
                "N": sites, "lambda": lam, "T": temperature, "ground_energy": energy,
                "rows": [{"r": r, "free_fermion": dict(zip(names, f)), "exact": dict(zip(names, e)),
                          "abs_diff": dict(zip(names, d)), "max_abs_diff": max(d)}
                         for r, f, e, d in zip(seps, free, ed, diffs)],
                "max_abs_diff": worst, "threshold": 1e-8, "passed": False})
        else:
            rows = [(r, name, *cells) for r, *values in zip(seps, free, ed, diffs)
                    for name, *cells in zip(names, *values)]
            expected = analysis.csv_text(["r,quantity,free_fermion,exact,abs_diff"],
                                         [*rows, ("max", "all", None, None, worst)])
        assert run_cli(["oracle", "compare", "--n", "8", "--lambda", "1.3", "--t", "0.5",
                        "--format", fmt], capsys) == (
            3, expected, f"check failed: oracle divergence {worst:.3e} exceeds 1.000e-08\n")

    @pytest.mark.parametrize("sites", [2, 13, 14])
    def test_ring_outside_the_oracle_range(self, sites, capsys):
        code, _, err = run_cli(["oracle", "compare", "--n", str(sites)], capsys)
        assert code == 1
        assert "sites must be in [3, 12]" in err


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_threshold_it_cannot_check_against(self, capsys, monkeypatch, threshold, fmt):
        # NaN never compares greater than the divergence, inf and a negative
        # bound decide the check before it is run: all exit 1 up front
        def block_eigh(*args, **kwargs):
            raise AssertionError("the oracle diagonalized a block")

        monkeypatch.setattr(np.linalg, "eigh", block_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", block_eigh)
        code, out, err = run_cli(
            ["oracle", "compare", "--n", "6", "--max-abs-diff", threshold, "--format", fmt],
            capsys)
        assert (code, out) == (1, "")
        assert "--max-abs-diff must be a finite number >= 0" in err


class TestFitCommand:
    def test_empty_input_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, err = run_cli(["fit", "power", "--input", str(path)], capsys)
        assert code == 1
        assert str(path) in err

    def test_power_fit_round_trip(self, tmp_path, capsys):
        xs = np.arange(10, 110, 10, dtype=float)
        path = tmp_path / "data.csv"
        rows = ["x,y"] + [f"{x:.12g},{0.645 * x**-0.25:.12g}" for x in xs]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(["fit", "power", "--input", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["exponent"] == pytest.approx(-0.25, abs=1e-6)
        assert payload["amplitude"] == pytest.approx(0.645, abs=1e-6)
        if load_schema is not None:
            jsonschema.validate(payload, load_schema("fit.schema.json"))

    def test_named_columns(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("a,N,MI\n1,2,8\n1,4,64\n1,8,512\n1,16,4096\n")
        code, out, _ = run_cli(
            ["fit", "power", "--input", str(path), "--x-col", "N", "--y-col", "MI"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["exponent"] == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("action", ["power", "log", "logcube"])
    @pytest.mark.parametrize("rows, message", [
        (["3,1", "3,2", "3,4", "3,8", "3,16"], "rank 1 < "),
        (["2,1", "4,2", "nan,4", "16,8", "32,16"], "finite coordinates: x[2] = nan"),
    ])
    def test_degenerate_or_non_finite_data_exits_one(self, tmp_path, capsys, action, rows,
                                                      message):
        path = tmp_path / "data.csv"
        path.write_text("\n".join(["x,y", *rows]) + "\n")
        code, out, err = run_cli(["fit", action, "--input", str(path)], capsys)
        assert (code, out) == (1, "")
        assert message in err

    @pytest.mark.parametrize("columns, message", [
        (["--x-col", "N"], "--x-col and --y-col go together"),
        (["--y-col", "N"], "--x-col and --y-col go together"),
        (["--x-col", "N", "--y-col", "Q"], "has no column 'Q'; its header is MI,N"),
    ])
    def test_column_options_are_checked(self, tmp_path, capsys, columns, message):
        path = tmp_path / "data.csv"
        path.write_text("MI,N\n8,2\n64,4\n512,8\n4096,16\n")
        code, out, err = run_cli(["fit", "power", "--input", str(path), *columns], capsys)
        assert code == 1
        assert out == ""
        assert message in err


class TestSweepJsonSchema:
    def test_tfim_json_validates(self, capsys):
        code, out, _ = run_cli(
            ["tfim", "mi", "--lambda", "1.0", "--t", "0", "--n", "12",
             "--r-min", "1", "--r-max", "3", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        if load_schema is not None:
            jsonschema.validate(payload, load_schema("sweep.schema.json"))
        assert len(payload["records"]) == 3

    def test_ising_corr_table(self, capsys):
        head = "# T in units of Ising coupling\nmodel,T,N,correlation\n"
        assert run_cli(["ising2d", "corr", "--t", "3", "--n-max", "4"], capsys) == (0, head + (
            "ising2d,3,1,0.266643752905\n"
            "ising2d,3,2,0.104188294941\n"
            "ising2d,3,3,0.0449515640014\n"
            "ising2d,3,4,0.0203114564323\n"), "")
        # an empty separation range prints the comment and the header only
        assert run_cli(["ising2d", "corr", "--n-min", "3", "--n-max", "2"], capsys) == (
            0, head, "")

    def test_ising_corr_refuses_json(self, capsys):
        code, out, err = run_cli(
            ["ising2d", "corr", "--t", "3", "--n-max", "2", "--format", "json"], capsys)
        assert code == 1
        assert out == ""
        assert "ising2d corr writes CSV only" in err

    @pytest.mark.parametrize("args", [
        ["ising2d", "exponents", "--side", "above"],
        ["tfim", "scaling", "--kind", "far"],
    ])
    def test_json_only_actions_refuse_csv(self, capsys, args):
        code, out, err = run_cli(args + ["--format", "csv"], capsys)
        assert code == 1
        assert out == ""
        assert f"{args[0]} {args[1]} writes JSON only" in err


class TestPointCommandsAreOneRowOfTheSweep:
    @pytest.mark.parametrize("sector, temperature", [("even", "0"), ("gibbs", "0.5")])
    def test_tfim_mi_rows_equal_the_sweep_rows_at_that_lambda(
            self, capsys, sector, temperature):
        common = ["--t", temperature, "--n", "12", "--r-max", "6", "--sector", sector]
        code, point, _ = run_cli(["tfim", "mi", "--lambda", "0.7", *common], capsys)
        assert code == 0
        code, grid, _ = run_cli(["tfim", "sweep", "--lambda-max", "1.4",
                                 "--lambda-count", "3", *common], capsys)
        assert code == 0
        rows = [l for l in grid.splitlines() if l.startswith("tfim,")]
        assert len(rows) == 18
        matching = [l for l in rows if l.split(",")[2] == "0.7"]
        assert point.splitlines() == grid.splitlines()[:2] + matching

    def test_ising2d_mi_rows_equal_the_sweep_rows_at_that_temperature(self, capsys):
        code, point, _ = run_cli(["ising2d", "mi", "--t", "2", "--n-max", "8"], capsys)
        assert code == 0
        code, grid, _ = run_cli(["ising2d", "sweep", "--t-min", "1.5", "--t-max", "2.5",
                                 "--t-count", "3", "--n-max", "8"], capsys)
        assert code == 0
        rows = [l for l in grid.splitlines() if l.startswith("ising2d,")]
        assert len(rows) == 24
        matching = [l for l in rows if l.split(",")[1] == "2"]
        assert point.splitlines() == grid.splitlines()[:2] + matching


class TestPureStatesPrintZero:
    @pytest.mark.parametrize("args", [
        ["tfim", "sweep", "--lambda-count", "2", "--n", "12", "--r-max", "3"],  # lambda = 0
        ["dimer", "--t-count", "1"],  # T = 0.1: the singlet
    ])
    def test_no_negative_zero_cells(self, capsys, args):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        cells = [c for line in out.splitlines()[2:] for c in line.split(",")]
        assert "0" in cells
        assert "-0" not in cells


class TestChecks:
    def test_exponents_above_check_passes(self, capsys):
        code, out, _ = run_cli(
            ["ising2d", "exponents", "--side", "above", "--check"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["relative_residual"] < 0.05

    def test_exponents_below_check_documented_red(self, capsys):
        # at the default separation 30 the fit window lies in the
        # finite-size crossover N (Tc - T) <~ 3, so the fitted exponent stays
        # short of the -1/2 band (see the README's known-red section); the
        # check exits 3
        code, out, _ = run_cli(
            ["ising2d", "exponents", "--side", "below", "--check"], capsys
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["passed"] is False
        assert -0.45 < payload["exponent"] < -0.2

    def test_props_small(self, capsys):
        code, out, _ = run_cli(["props", "--trials", "40", "--seed", "7"], capsys)
        assert code == 0
        assert "PASS klein-inequality" in out

    PROPS_SUITES = ["klein-inequality", "mi-nonnegative", "mi-equals-relative-entropy",
                    "product-state-mi-zero"]

    @staticmethod
    def props_lines(out):
        """(verdict, suite, label) of each line `props` prints."""
        return [re.fullmatch(r"(PASS|FAIL) (\S+) \((min|max gap|max) = \S+\)", line).groups()
                for line in out.splitlines()]

    def test_props_prints_four_suites_in_order(self, capsys):
        code, out, err = run_cli(["props", "--trials", "20", "--seed", "3"], capsys)
        assert (code, err) == (0, "")
        assert self.props_lines(out) == list(zip(
            ["PASS"] * 4, self.PROPS_SUITES, ["min", "min", "max gap", "max"]))

    def test_props_failures_are_named_and_exit_three(self, capsys, monkeypatch):
        monkeypatch.setattr(density, "relative_entropy", lambda rho, sigma: -1.0)
        code, out, err = run_cli(["props", "--trials", "5"], capsys)
        assert [line[:2] for line in self.props_lines(out)] == list(zip(
            ["FAIL", "PASS", "FAIL", "PASS"], self.PROPS_SUITES))
        assert (code, err) == (3, "check failed: property suites failed: "
                                  "klein-inequality, mi-equals-relative-entropy\n")

    def test_props_nan_is_never_the_worst(self, capsys, monkeypatch):
        real, calls = density.mutual_information, []

        def first_is_nan(rho):
            calls.append(rho)
            return math.nan if len(calls) == 1 else real(rho)

        monkeypatch.setattr(density, "mutual_information", first_is_nan)
        code, out, _ = run_cli(["props", "--trials", "5", "--seed", "3"], capsys)
        assert code == 0
        assert "nan" not in out
        assert [line[0] for line in self.props_lines(out)] == ["PASS"] * 4

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_props_without_trials_exits_one(self, capsys, trials):
        # no trial would leave every suite vacuously passing
        code, out, err = run_cli(["props", "--trials", trials], capsys)
        assert (code, out) == (1, "")
        assert "--trials must be >= 1" in err


def canned(monkeypatch, module, name, value):
    monkeypatch.setattr(module, name, lambda *args, **kwargs: value)


def dumped(payload):
    return json.dumps(payload, indent=2) + "\n"


class TestReportBytes:
    """The exact stdout, stderr and exit code of each report, with its slow
    producer replaced by canned values whose digits no platform changes."""

    NN_FIT = FitResult("log_linear", (0.125, 0.5), None, 0.0078125, 4, (8.0, 64.0))
    CUBIC_FIT = FitResult("log_cubic", (0.25, 0.0625), None, 0.001953125, 5, (32.0, 512.0))

    def nn_payload(self, residual):
        return {
            "kind": "log_linear", "coefficients": [0.125, 0.5], "amplitude": None,
            "residual_norm": 0.0078125, "n_points": 4, "x_range": [8.0, 64.0],
            "kind_of_scaling": "nn", "sites": [8, 16, 32, 64],
            "derivatives": [1.0, 1.25, 1.5, 1.75], "relative_residual": residual,
        }

    @pytest.mark.parametrize("flags, residual, passed, code", [
        ([], 0.0625, None, 0),
        (["--check"], 0.015625, True, 0),
        (["--check"], 0.0625, False, 3),
    ])
    def test_tfim_nn_scaling(self, capsys, monkeypatch, flags, residual, passed, code):
        canned(monkeypatch, analysis, "tfim_nn_scaling", {
            "sites": [8, 16, 32, 64], "derivatives": [1.0, 1.25, 1.5, 1.75],
            "fit": self.NN_FIT, "relative_residual": residual,
        })
        expected = self.nn_payload(residual)
        if passed is not None:
            expected["passed"] = passed
        assert run_cli(["tfim", "scaling", "--kind", "nn", *flags], capsys) == (
            code, dumped(expected), "check failed: tfim scaling --kind nn\n" if code else "")

    @pytest.mark.parametrize("flags, linear_residual, passed, code", [
        ([], 0.0009765625, None, 0),
        (["--check"], 0.03125, True, 0),
        (["--check"], 0.0009765625, False, 3),  # the ln N law fits better
    ])
    def test_tfim_far_scaling(self, capsys, monkeypatch, flags, linear_residual, passed, code):
        linear = FitResult("log_linear", (0.5, 0.75), None, linear_residual, 5, (32.0, 512.0))
        canned(monkeypatch, analysis, "tfim_far_scaling", {
            "sites": [32, 64, 128, 256, 512], "peak_locations": [1.0, 1.0, 0.995, 0.995, 1.0],
            "peaks": [0.5, 1.5, 2.5, 4.0, 6.0], "fit": self.CUBIC_FIT, "fit_linear": linear,
            "relative_residual": 0.03125, "relative_residual_linear": 0.5,
        })
        expected = {
            "kind": "log_cubic", "coefficients": [0.25, 0.0625], "amplitude": None,
            "residual_norm": 0.001953125, "n_points": 5, "x_range": [32.0, 512.0],
            "kind_of_scaling": "far", "sites": [32, 64, 128, 256, 512],
            "peaks": [0.5, 1.5, 2.5, 4.0, 6.0], "peak_locations": [1.0, 1.0, 0.995, 0.995, 1.0],
            "relative_residual": 0.03125, "relative_residual_linear": 0.5,
        }
        if passed is not None:
            expected["passed"] = passed
        assert run_cli(["tfim", "scaling", "--kind", "far", *flags], capsys) == (
            code, dumped(expected), "check failed: tfim scaling --kind far\n" if code else "")

    @pytest.mark.parametrize("exponent, passed", [(-0.5078125, True), (-0.4375, False)])
    def test_ising2d_exponents_below(self, capsys, monkeypatch, exponent, passed):
        fit = FitResult("power_law", (exponent,), 0.75, 0.0625, 12, (0.001, 0.1))
        canned(monkeypatch, analysis, "ising2d_derivative_exponent",
               {"fit": fit, "relative_residual": 0.03125})
        expected = {
            "kind": "power_law", "coefficients": [exponent], "amplitude": 0.75,
            "residual_norm": 0.0625, "n_points": 12, "x_range": [0.001, 0.1],
            "exponent": exponent, "side": "below", "separation": 30,
            "relative_residual": 0.03125,
            "check": {"target_exponent": -0.5, "tolerance": 0.05, "passed": passed},
            "passed": passed,
        }
        code = 0 if passed else 3
        assert run_cli(["ising2d", "exponents", "--side", "below", "--check"], capsys) == (
            code, dumped(expected), "" if passed else "check failed: ising2d exponents --side below\n")

    @pytest.mark.parametrize("residual, passed", [(0.03125, True), (0.0625, False)])
    def test_ising2d_exponents_above(self, capsys, monkeypatch, residual, passed):
        fit = FitResult("log_linear", (-0.25, -0.5), None, 0.125, 12, (0.001, 0.1))
        canned(monkeypatch, analysis, "ising2d_derivative_exponent",
               {"fit": fit, "relative_residual": residual})
        expected = {
            "kind": "log_linear", "coefficients": [-0.25, -0.5], "amplitude": None,
            "residual_norm": 0.125, "n_points": 12, "x_range": [0.001, 0.1],
            "side": "above", "separation": 40, "relative_residual": residual,
            "check": {"max_relative_residual": 0.05, "passed": passed},
            "passed": passed,
        }
        code = 0 if passed else 3
        assert run_cli(["ising2d", "exponents", "--side", "above", "--n", "40", "--check"],
                       capsys) == (
            code, dumped(expected), "" if passed else "check failed: ising2d exponents --side above\n")

    # free-fermion and ED values 2^-30 and (r = 2's MI) 2^-20 apart
    FREE = (0.5, [0.25, 0.125, 0.0625], [-0.125, -0.0625, -0.03125],
            [0.375, 0.3125, 0.28125], [0.5, 0.25, 0.125])
    EXACT = [(0.5 + 2**-30, 0.25, -0.125, 0.375 - 2**-30, 0.5),
             (0.5 + 2**-30, 0.125, -0.0625 + 2**-30, 0.3125, 0.25 + 2**-20),
             (0.5 + 2**-30, 0.0625 - 2**-30, -0.03125, 0.28125, 0.125)]

    def canned_oracle(self, monkeypatch):
        # one mz for the ring, arrays over r, then the ground energy
        mz, *columns = zip(*self.EXACT)
        canned(monkeypatch, exact, "observables",
               (mz[0], *(np.array(c) for c in columns), -10.25))
        # the free side's one-coupling grid: mz over the couplings, then
        # gxx, gyy, gzz and czz over (couplings, separations); its MI is
        # the kernel's third array
        free_mz, gxx, gyy, gzz, mi = self.FREE
        canned(monkeypatch, tfim, "correlations",
               (np.array([free_mz]), *(np.array([v]) for v in (gxx, gyy, gzz, gzz))))
        canned(monkeypatch, density, "two_site_entropies", (None, None, np.array([mi])))

    def test_oracle_csv(self, capsys, monkeypatch):
        self.canned_oracle(monkeypatch)
        assert run_cli(["oracle", "compare", "--n", "6", "--max-abs-diff", "1e-6"], capsys) == (
            0,
            "r,quantity,free_fermion,exact,abs_diff\n"
            "1,mz,0.5,0.500000000931,9.31322574615e-10\n"
            "1,gxx,0.25,0.25,0\n"
            "1,gyy,-0.125,-0.125,0\n"
            "1,gzz,0.375,0.374999999069,9.31322574615e-10\n"
            "1,MI,0.5,0.5,0\n"
            "2,mz,0.5,0.500000000931,9.31322574615e-10\n"
            "2,gxx,0.125,0.125,0\n"
            "2,gyy,-0.0625,-0.0624999990687,9.31322574615e-10\n"
            "2,gzz,0.3125,0.3125,0\n"
            "2,MI,0.25,0.250000953674,9.53674316406e-07\n"
            "3,mz,0.5,0.500000000931,9.31322574615e-10\n"
            "3,gxx,0.0625,0.0624999990687,9.31322574615e-10\n"
            "3,gyy,-0.03125,-0.03125,0\n"
            "3,gzz,0.28125,0.28125,0\n"
            "3,MI,0.125,0.125,0\n"
            "max,all,,,9.53674316406e-07\n",
            "",
        )

    def test_oracle_json(self, capsys, monkeypatch):
        self.canned_oracle(monkeypatch)
        names = ("mz", "gxx", "gyy", "gzz", "MI")
        rows = []
        for r, ed in enumerate(self.EXACT, start=1):
            free = (self.FREE[0], *(v[r - 1] for v in self.FREE[1:]))
            diffs = [abs(f - e) for f, e in zip(free, ed)]
            rows.append({"r": r, "free_fermion": dict(zip(names, free)),
                         "exact": dict(zip(names, ed)), "abs_diff": dict(zip(names, diffs)),
                         "max_abs_diff": max(diffs)})
        expected = {"N": 6, "lambda": 1.0, "T": 0.0, "ground_energy": -10.25, "rows": rows,
                    "max_abs_diff": 2**-20, "threshold": 1e-08, "passed": False}
        assert run_cli(["oracle", "compare", "--n", "6", "--format", "json"], capsys) == (
            3, dumped(expected), "check failed: oracle divergence 9.537e-07 exceeds 1.000e-08\n")


class TestConfigAndErrors:
    def test_ising2d_temperature_defaults_to_critical(self, tmp_path, capsys):
        critical = run_cli(["ising2d", "mi"], capsys)
        assert critical[0] == 0
        assert critical == run_cli(["ising2d", "mi", "--t", "2.269185314213022"], capsys)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"t": 2.5}))
        configured = run_cli(["ising2d", "mi", "--config", str(config)], capsys)
        assert configured == run_cli(["ising2d", "mi", "--t", "2.5"], capsys)
        assert configured != critical

    def test_config_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"t_count": 7, "t_min": 0.5}))
        code, out, _ = run_cli(["dimer", "--config", str(config)], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith(("#", "model"))]
        assert len(rows) == 7
        assert rows[0].split(",")[1] == "0.5"

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"t_count": 7}))
        code, out, _ = run_cli(
            ["dimer", "--config", str(config), "--t-count", "3"], capsys
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith(("#", "model"))]
        assert len(rows) == 3

    def test_abbreviated_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"t_count": 3}))
        code, out, _ = run_cli(["dimer", "--t-c", "2", "--config", str(config)], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith(("#", "model"))]
        assert len(rows) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(["dimer", "--config", str(config)], capsys)
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize("config, message", [
        ({"t_count": "7"}, "config key 't_count'"),  # a string for an int option
        ({"format": "xml"}, "config key 'format'"),  # not among the choices
        ([7], "does not hold a JSON object"),
    ])
    def test_config_value_the_parser_would_refuse(self, tmp_path, capsys, config, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(["dimer", "--config", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert message in err

    def test_unknown_flag_exits_one(self, capsys):
        assert cli.main(["dimer", "--frobnicate"]) == 1

    def test_workers_is_not_an_option(self, tmp_path, capsys):
        # every sweep is one batch: there is nothing to split among workers
        assert cli.main(["dimer", "--workers", "2"]) == 1
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"workers": 2}))
        code, out, err = run_cli(["dimer", "--config", str(config)], capsys)
        assert (code, out) == (1, "")
        assert "config key 'workers' is not an option here" in err

    def test_invalid_value_exits_one(self, capsys):
        code, _, err = run_cli(["ising2d", "corr", "--t", "-2.0"], capsys)
        assert code == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("args, flag", [
        (["ising2d", "sweep", "--n-step", "0"], "--n-step"),
        (["ising2d", "sweep", "--n-step", "-1"], "--n-step"),
        (["tfim", "mi", "--r-step", "-2"], "--r-step"),
        (["tfim", "sweep", "--r-step", "0", "--lambda-count", "2"], "--r-step"),
        (["tfim", "sweep", "--r-step", "-2", "--lambda-count", "2"], "--r-step"),
    ])
    def test_separation_step_below_one_exits_one(self, capsys, args, flag, fmt):
        # a zero step has no range, a negative one an empty grid
        code, out, err = run_cli(args + ["--format", fmt], capsys)
        assert (code, out) == (1, "")
        assert f"error: {flag} must be >= 1" in err

    def test_ising_mi_takes_every_separation_whatever_the_step(self, capsys):
        code, out, _ = run_cli(["ising2d", "mi", "--t", "3", "--n-max", "3", "--n-step", "0"],
                               capsys)
        assert code == 0
        assert [l.split(",")[3] for l in out.splitlines() if l.startswith("ising2d,")] == [
            "1", "2", "3"]

    def test_infinite_ising_temperature(self, capsys):
        code, _, err = run_cli(["ising2d", "corr", "--t", "inf"], capsys)
        assert code == 1
        assert "temperature must be finite and > 0" in err
        code, out, _ = run_cli(["ising2d", "mi", "--t", "inf", "--n-max", "3"], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("ising2d,")]
        assert len(rows) == 3
        assert all(r.endswith(",error: temperature must be finite and > 0") for r in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("args", [
        ["dimer", "--t-min", "inf", "--t-count", "1"],
        ["dimer", "--t-max", "inf", "--t-count", "3"],
        ["tfim", "mi", "--t", "inf"],
        ["tfim", "sweep", "--t", "inf", "--lambda-count", "2"],
        ["oracle", "compare", "--n", "6", "--t", "inf"],
    ])
    def test_infinite_temperature_exits_one(self, capsys, args, fmt):
        # JSON has no infinity; every format refuses it the same way
        code, out, err = run_cli(args + ["--format", fmt], capsys)
        assert code == 1
        assert out == ""
        assert "temperature must be finite" in err

    def test_infinite_tfim_coupling_is_an_error_row(self, capsys):
        # rejected by name instead of surfacing as mz = nan
        code, out, _ = run_cli(["tfim", "mi", "--lambda", "inf", "--r-max", "2"], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("tfim,")]
        assert rows == [f"tfim,0,inf,1000,{r},,,,,error: coupling must be finite"
                        for r in (1, 2)]

    def test_nan_dimer_temperature_is_an_error_row(self, capsys):
        code, out, _ = run_cli(["dimer", "--t-min", "nan", "--t-count", "1"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "dimer,nan,,,,,,,,error: temperature must be >= 0"

    def test_nan_tfim_coupling_is_an_error_row(self, capsys):
        code, out, _ = run_cli(["tfim", "mi", "--lambda", "nan", "--r-max", "2"], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("tfim,")]
        assert len(rows) == 2
        assert all(r.endswith(",error: coupling must be >= 0") for r in rows)

    @pytest.mark.parametrize("args, field, tag", [
        (["dimer", "--t-min", "nan", "--t-count", "1"], "T", "temperature must be >= 0"),
        (["tfim", "mi", "--lambda", "nan", "--r-max", "2"], "lambda",
         "coupling must be >= 0"),
    ])
    def test_nan_parameter_is_null_in_json(self, capsys, args, field, tag):
        code, out, _ = run_cli(args + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("sweep.schema.json"))
        assert payload["records"]
        for row in payload["records"]:
            assert row[field] is None
            assert row["tag"] == f"error: {tag}"

    def test_nan_oracle_temperature_exits_one(self, capsys):
        code, _, err = run_cli(["oracle", "compare", "--n", "6", "--t", "nan"], capsys)
        assert code == 1
        assert "temperature must be >= 0" in err

    def test_key_error_is_a_bug_and_propagates(self, monkeypatch):
        # config keys, model names and unit comments are checked before
        # they are looked up, so a KeyError is a programming error
        def lookup_bug(args):
            raise KeyError("x")

        help_text, options, _ = cli.SUBCOMMANDS["dimer"]
        monkeypatch.setitem(cli.SUBCOMMANDS, "dimer", (help_text, options, lookup_bug))
        with pytest.raises(KeyError, match="'x'"):
            cli.main(["dimer"])

    def test_nonconvergence_exits_two(self, capsys, monkeypatch):
        # a corrupted F_0 seed breaks the window's Parseval check
        elliptic = ising2d._elliptic
        monkeypatch.setattr(ising2d, "_elliptic",
                            lambda x: (2.0 * elliptic(x)[0], elliptic(x)[1]))
        code, _, err = run_cli(
            ["ising2d", "corr", "--t", "2.26919", "--n-min", "40", "--n-max", "40"],
            capsys,
        )
        assert code == 2
        assert "non-convergence" in err

    def test_near_critical_correlation_exits_zero(self, capsys):
        # 40-digit mpmath value of the 40 x 40 determinant at T = 2.26919
        code, out, _ = run_cli(
            ["ising2d", "corr", "--t", "2.26919", "--n-min", "40", "--n-max", "40"],
            capsys,
        )
        assert code == 0
        row = out.strip().splitlines()[-1].split(",")
        assert row[:3] == ["ising2d", "2.26919", "40"]
        assert float(row[3]) == pytest.approx(0.256209812819, abs=1e-12)

    def test_near_critical_mi_has_no_error_rows(self, capsys):
        code, out, _ = run_cli(
            ["ising2d", "mi", "--t", "2.26919", "--n-min", "30", "--n-max", "40"],
            capsys,
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("ising2d,")]
        assert len(rows) == 11
        assert all(row.endswith(",symmetric") for row in rows)

    def test_small_temperature_is_fully_ordered(self, capsys):
        # sinh(2/T) overflows a float here; the modulus x underflows to 0,
        # the window is a_n = delta_{n0}, so G = 1 and MI = 1 bit
        code, out, _ = run_cli(
            ["ising2d", "mi", "--t", "0.002", "--n-min", "1", "--n-max", "3"], capsys)
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if l.startswith("ising2d,")]
        assert [int(r[3]) for r in rows] == [1, 2, 3]
        for r in rows:
            assert float(r[8]) == pytest.approx(1.0, abs=1e-12)
        code, out, _ = run_cli(
            ["ising2d", "corr", "--t", "0.002", "--n-min", "1", "--n-max", "3"], capsys)
        assert code == 0
        for line in out.splitlines():
            if line.startswith("ising2d,"):
                assert float(line.split(",")[3]) == pytest.approx(1.0, abs=1e-12)


class TestParserPerCommand:
    """main builds only the named command's options; what argparse prints
    must not show it.  Each case is a help text, an unknown option and a
    bad value, at the top level and in each of the six commands, compared
    with the parser that carries every command's options."""

    @pytest.mark.parametrize("argv", [
        ["--help"], ["--bogus"], ["nonsense"], [],
        ["dimer", "--help"], ["dimer", "--bogus"], ["dimer", "--format", "xml"],
        ["ising2d", "--help"], ["ising2d", "sweep", "--bogus"], ["ising2d", "nonsense"],
        ["tfim", "--help"], ["tfim", "sweep", "--bogus"], ["tfim", "sweep", "--sector", "xyz"],
        ["oracle", "--help"], ["oracle", "compare", "--bogus"], ["oracle", "nonsense"],
        ["fit", "--help"], ["fit", "power", "--input", "x.csv", "--bogus"], ["fit", "nonsense"],
        ["props", "--help"], ["props", "--bogus"], ["props", "--trials", "x"],
    ], ids=lambda argv: " ".join(argv) or "no arguments")
    def test_text_matches_the_full_parser(self, argv, capsys):
        code = cli.main(argv)
        via_main = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        full = capsys.readouterr()
        assert (via_main.out, via_main.err) == (full.out, full.err)
        assert via_main.out or via_main.err
        assert code == (cli.EXIT_OK if exc.value.code == 0 else cli.EXIT_VALIDATION)

    def test_main_adds_only_the_invoked_commands_options(self, monkeypatch, tmp_path):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def spy(parser, *names, **kwargs):
            if names != ("-h", "--help"):  # every parser's own help option
                added.append((parser.prog, names[0]))
            return add_argument(parser, *names, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
        argv = ["tfim", "sweep", "--lambda-count", "2", "--r-max", "2",
                "--output", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 0
        assert {prog for prog, _ in added} == {"critent tfim"}
        options = [name for _, name in added]
        assert options[-3:] == ["--config", "--output", "--format"]
        added.clear()
        cli.build_parser()
        assert options == [name for prog, name in added if prog == "critent tfim"]
        assert len(added) > len(options)  # the full parser builds every command

    def test_config_does_not_carry_into_the_next_run(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"t_count": 2}))
        assert run_cli(["dimer", "--config", str(config)], capsys)[0] == 0
        code, out, _ = run_cli(["dimer"], capsys)
        rows = [l for l in out.splitlines() if l and not l.startswith(("#", "model"))]
        assert (code, len(rows)) == (0, 100)


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        for run in ("critent.cli.build_parser()",
                    "critent.cli.main(['oracle', 'compare', '--n', '6', '--t', '0'])"):
            code = (f"import sys, critent.cli; {run}; "
                    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
            proc = subprocess.run([sys.executable, "-c", code],
                                  capture_output=True, text=True, check=True)
            assert proc.stdout.splitlines()[-1] == "[]", run


class TestFrozenHeap:
    def test_main_freezes_the_import_time_heap(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = ("import gc; from critent import cli; before = gc.get_freeze_count(); "
                f"code = cli.main(['ising2d', 'sweep', '--t-count', '2', '--output', {str(out)!r}]); "
                "print(before, gc.get_freeze_count(), code)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True)
        before, after, exit_code = map(int, proc.stdout.split())
        assert (before, exit_code) == (0, 0)
        assert after > 0

    @pytest.mark.parametrize("args", [["ising2d", "sweep"],
                                      ["tfim", "sweep", "--lambda-count", "3"]])
    def test_repeated_in_process_runs_match_a_fresh_process(self, tmp_path, args):
        # the second run starts with the first run's heap frozen
        paths = [tmp_path / f"{name}.csv" for name in ("first", "second", "fresh")]
        for path in paths[:2]:
            assert cli.main(args + ["--output", str(path)]) == 0
        subprocess.run([sys.executable, "-m", "critent.cli", *args, "--output", str(paths[2])],
                       check=True)
        first, second, fresh = (path.read_bytes() for path in paths)
        assert first == second == fresh


class TestInstalledEntryPoint:
    def test_help_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "critent.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "critent" in proc.stdout

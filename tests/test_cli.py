import json
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from critent import cli, exact, ising2d

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
        assert cli.main(base + ["--output", str(out_b), "--workers", "4"]) == 0
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

    @pytest.mark.parametrize("sites", [3, 9, 11])
    def test_odd_ring_fails_before_the_diagonalization(self, sites, capsys, monkeypatch):
        def block_eigh(*args, **kwargs):
            raise AssertionError("the oracle diagonalized a block")

        monkeypatch.setattr(np.linalg, "eigh", block_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", block_eigh)
        code, _, err = run_cli(
            ["oracle", "compare", "--n", str(sites), "--t", "0.5"], capsys
        )
        assert code == 1
        assert "sites must be even and >= 4" in err

    @pytest.mark.parametrize("sites", [2, 13, 14])
    def test_ring_outside_the_oracle_range(self, sites, capsys):
        code, _, err = run_cli(["oracle", "compare", "--n", str(sites)], capsys)
        assert code == 1
        assert "sites must be in [3, 12]" in err


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
        code, out, _ = run_cli(
            ["ising2d", "corr", "--t", "3.0", "--n-min", "1", "--n-max", "4"],
            capsys,
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "model,T,N,correlation"
        assert len(lines) == 5

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


class TestConfigAndErrors:
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

    def test_invalid_value_exits_one(self, capsys):
        code, _, err = run_cli(["ising2d", "corr", "--t", "-2.0"], capsys)
        assert code == 1

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


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        for run in ("critent.cli.build_parser()",
                    "critent.cli.main(['oracle', 'compare', '--n', '6', '--t', '0'])"):
            code = (f"import sys, critent.cli; {run}; "
                    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
            proc = subprocess.run([sys.executable, "-c", code],
                                  capture_output=True, text=True, check=True)
            assert proc.stdout.splitlines()[-1] == "[]", run


class TestInstalledEntryPoint:
    def test_help_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "critent.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "critent" in proc.stdout

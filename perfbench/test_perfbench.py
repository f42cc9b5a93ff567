"""Tests of the benchmark's own code: span arithmetic, wrapper binding, and
the golden comparison."""

import json

import pytest

import golden
import layers
import run
from workloads import WORKLOADS, variant_of


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ["outer", -1, 0.0, 10.0],
        ["a", 0, 1.0, 3.0],
        ["b", 0, 2.5, 4.0],   # overlaps a: union of a and b is [1, 4]
        ["inner", 2, 3.0, 3.5],
        ["c", 0, 9.0, 12.0],  # runs past its parent: only [9, 10] is covered
    ]
    assert layers.self_times(spans) == pytest.approx([10 - 3 - 1, 2.0, 1.0, 0.5, 3.0])


def test_layer_stats_sum_calls_and_count_scaling_mi_evals():
    tracer = layers.Tracer()
    tracer.spans = [
        ["analysis.tfim_far_scaling", -1, 0.0, 5.0],
        ["analysis.derivative_at", 0, 1.0, 2.0],
        ["tfim.correlation_mi", 1, 1.0, 1.5],
        ["tfim.correlation_mi", -1, 6.0, 7.0],  # outside the scaling driver
    ]
    stats = layers.layer_stats(tracer)
    assert stats["tfim.correlation_mi.calls"] == 2
    assert stats["tfim.correlation_mi.self_s"] == pytest.approx(1.5)
    assert stats["analysis.derivative_at.self_s"] == pytest.approx(0.5)
    assert stats["analysis.mi_evals"] == 1


def test_wrappers_reach_callers_that_imported_by_name():
    from critent import numerics, tfim

    original = tfim.toeplitz_determinant
    tracer = layers.Tracer()
    restore = layers.install(tracer)
    try:
        tfim.correlation_mi(tfim.TfimParams(coupling=1.0, temperature=0.0,
                                            sites=8, separation=2))
    finally:
        restore()
    assert tfim.toeplitz_determinant is original is numerics.toeplitz_determinant
    stats = layers.layer_stats(tracer)
    assert stats["numerics.toeplitz_determinant.calls"] == 2
    assert stats["numerics.toeplitz_determinant.dim3_sum"] == 2 * 2**3
    assert stats["tfim.coefficient_window.terms"] == 8 * 5


def test_every_per_layer_metric_names_a_traced_function_or_counter():
    from critent import cli  # noqa: F401  (loads every traced module)
    import importlib

    spec = json.loads((golden.GOLDEN_DIR.parent.parent / "BENCHMARK.json").read_text())
    derived = {"ising2d.symbol_samples", "ising2d.window_cache_hit_ratio",
               "tfim.coefficient_window.terms", "numerics.toeplitz_determinant.dim3_sum",
               "analysis.sweep.points", "analysis.sweep.error_rows", "analysis.mi_evals",
               "import.scipy.special.cum_s", "import.critent.cli.cum_s",
               "trace.overhead_frac", "oracle.max_abs_diff"}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in derived:
            continue
        module, function, stat = name.split(".")
        assert stat in ("self_s", "calls"), name
        assert module in layers.TRACED_MODULES, name
        assert function in layers.public_functions(
            importlib.import_module(f"critent.{module}")), name


def test_import_times_read_cumulative_microseconds():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1049 |     242925 |       scipy.special",
        "import time:       525 |     423083 | critent",
        "import time:      5129 |       5129 | critent.cli",
        "import time:       339 |       2482 | json",
    ])
    times = layers.import_times(log)
    assert times["import.scipy.special.cum_s"] == pytest.approx(0.242925)
    assert times["import.critent.cli.cum_s"] == pytest.approx(0.428212)


def _golden(workload: str):
    entry = golden.load_manifest()[workload]["0"]
    assert entry["argv"] == WORKLOADS[workload].argv(0)
    return (golden.GOLDEN_DIR / entry["file"]).read_text(), entry["exit"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_golden_matches_itself(workload):
    text, code = _golden(workload)
    assert golden.compare(WORKLOADS[workload].output, text, text, code, code) == []


def test_comparator_rejects_perturbed_value():
    text, code = _golden("ising2d-sweep")
    lines = text.splitlines()
    fields = lines[5].split(",")
    fields[8] = f"{float(fields[8]) + 1e-6:.12g}"  # MI column
    lines[5] = ",".join(fields)
    problems = golden.compare("sweep", "\n".join(lines) + "\n", text, code, code)
    assert any("MI" in p for p in problems)


def test_comparator_accepts_rounding_within_tolerance():
    text, code = _golden("ising2d-sweep")
    lines = text.splitlines()
    fields = lines[5].split(",")
    fields[8] = f"{float(fields[8]) + 1e-11:.12g}"
    lines[5] = ",".join(fields)
    assert golden.compare("sweep", "\n".join(lines) + "\n", text, code, code) == []


def test_comparator_rejects_missing_row_and_error_row():
    text, code = _golden("tfim-sweep")
    lines = text.splitlines()
    assert golden.compare("sweep", "\n".join(lines[:-1]) + "\n", text, code, code)
    fields = lines[-1].split(",")
    fields[5:9] = ["", "", "", ""]
    fields[9] = "error: boom"
    errored = "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
    problems = golden.compare("sweep", errored, text, code, code)
    assert any("error row the golden lacks" in p for p in problems)


def test_comparator_rejects_wrong_exit_code():
    text, code = _golden("oracle-gibbs")
    assert code == 3  # the known-red finite-temperature oracle gap
    assert golden.compare("oracle", text, text, 0, code) == ["exit code 0, golden 3"]
    assert golden.oracle_max_abs_diff(text) == pytest.approx(0.1963069665)


def test_comparator_rejects_moved_scaling_peak():
    text, code = _golden("tfim-far-scaling")
    payload = json.loads(text)
    payload["peaks"][2] += 1e-3
    problems = golden.compare("scaling", json.dumps(payload), text, code, code)
    assert any(p.startswith("peaks") for p in problems)


def test_seed_variants_and_clearance_from_tc():
    assert [variant_of(s) for s in range(8)] == [0, 1, 2, 3, 1, 2, 3, 1]
    manifest = golden.load_manifest()
    for name, workload in WORKLOADS.items():
        for variant in range(4):
            assert manifest[name][str(variant)]["argv"] == workload.argv(variant)
    for variant in range(1, 4):
        argv = WORKLOADS["ising2d-sweep"].argv(variant)
        lo, hi = float(argv[3]), float(argv[5])
        grid = [lo + (hi - lo) * k / 20 for k in range(21)]
        assert min(abs(t - 2.269185314213022) for t in grid) >= 0.02


def test_end_to_end_scales_timings_by_reference_speed():
    workload = WORKLOADS["oracle-gibbs"]  # 5 output points
    setups = [{"setup_s": 0.4, "speed": 2.0}]
    runs = [{"wall_s": 2.0, "setup_s": 0.6, "main_s": 1.0, "peak_rss_mb": 100.0,
             "speed": 0.5}]
    scaled = run.end_to_end(workload, runs, setups)
    assert scaled["wall_s"] == [1.0]
    assert scaled["setup_s"] == pytest.approx([0.8, 0.3])
    assert scaled["points_per_s"] == [10.0]
    assert scaled["peak_rss_mb"] == [100.0]
    raw = run.end_to_end(workload, runs, setups, scaled=False)
    assert raw["wall_s"] == [2.0] and raw["points_per_s"] == [5.0]


def test_reference_process_times_the_kernel_and_exits():
    reference = run.Reference()
    try:
        times = reference.slot(0.0)
    finally:
        reference.close()
    assert len(times) == 1 and 0.0 < times[0] < run.REF_TIMEOUT_S
    assert reference.times == times
    assert reference.proc.returncode == 0

"""critent benchmark: CLI workloads in fresh interpreters, checked against goldens.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition is a fresh interpreter
(`perfbench/child.py`) with PYTHONPATH=src at the default `--workers 1`,
because the 2D Ising coefficient cache is process-global and an in-process
repeat would time a warm cache no CLI user gets.  Children run with BLAS
pinned to one thread: on a host with few cores, a second BLAS thread mostly
spin-waits for the first and makes timings follow the scheduler.

--trace 0 prints the end-to-end metrics: wall_s, setup_s, points_per_s and
peak_rss_mb, each a median over the run's repetitions.  The timings are in
reference seconds: between repetitions the runner times a fixed kernel
(`perfbench/reference.py`) and scales each repetition's timings by
REF_NOMINAL_S / (the kernel's mean time just before and just after it),
which takes out most of the speed drift of a shared host.  The raw medians
are printed beside them.  --trace 1 alternates untraced and traced
repetitions and prints the per-layer metrics, medians over the traced ones,
plus trace.overhead_frac.  Metric names and units come from BENCHMARK.json.  Every repetition's output is compared with the golden
for the seed; the last stdout line is the JSON result and the exit code is
1 when any comparison failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import golden
import layers
from workloads import WORKLOADS, variant_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 60.0
SETUP_REPS = 3
MIN_REPS = 3  # untraced repetitions, or untraced/traced pairs with --trace 1: 2
MAX_MEASURE_S = 100.0  # stop repeating past this, whatever the minimum
BLAS_THREADS = {k: "1" for k in
                ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
REF_NOMINAL_S = 0.2  # the reference kernel's time on the host that set the baseline
REF_SHARE = 0.25  # reference kernel time per second of repetition, at least one kernel
REF_TIMEOUT_S = 10.0


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_THREADS)


class Reference:
    """One long-lived process that times the reference kernel on request."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        self.times: list[float] = []

    def slot(self, busy_s: float) -> list[float]:
        """Time the kernel for about REF_SHARE of busy_s seconds, at least once."""
        typical = statistics.median(self.times) if self.times else REF_NOMINAL_S
        times = []
        for _ in range(max(1, round(REF_SHARE * busy_s / typical))):
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("reference kernel process ended early")
            times.append(float(line))
        self.times += times
        return times

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=REF_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def run_child(mode: str, cli_argv: list[str], workdir: Path, tag: str) -> dict:
    """Launch one child, wait for it with os.wait4 and time it from outside."""
    timings = workdir / f"{tag}.json"
    output = workdir / f"{tag}.out"
    stderr_path = workdir / f"{tag}.err"
    cmd = [sys.executable]
    if mode == "trace":
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "child.py"), str(timings), mode]
    if mode != "setup":
        cmd += [*cli_argv, "--output", str(output)]
    env = child_env()
    with open(stderr_path, "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            # per-child rusage; RUSAGE_CHILDREN would be a running max over all
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    run = {
        "exit": proc.returncode,
        "wall_s": exited - launched,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "timed_out": timed_out.is_set(),
        "stderr": stderr_path.read_text(errors="replace"),
        "output": output.read_text() if output.exists() else "",
    }
    if timings.exists():
        record = json.loads(timings.read_text())
        run["setup_s"] = record["setup_done"] - launched
        run["main_s"] = record.get("main_s")
        run["layers"] = record.get("layers")
    return run


def median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it, or None."""
    values = sorted(v for v in values if v is not None)
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, values[n - 11]


def provenance(args, argv) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.exists() else ref
        commit = ref
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "critent").glob("*.py")))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "argv": sys.argv,
        "seed": args.seed,
        "variant": variant_of(args.seed),
        "cli_argv": argv,
        "src_critent_lines": src_lines,
    }


def check(run: dict, kind: str, expected: str, expected_exit: int) -> list[str]:
    if run["timed_out"]:
        return [f"timed out after {CHILD_TIMEOUT_S:.0f} s"]
    problems = golden.compare(kind, run["output"], expected, run["exit"], expected_exit)
    if problems and run["stderr"].strip():
        problems.append("stderr: " + run["stderr"].strip().splitlines()[-1])
    return problems


def measure(args, workload, argv, expected, expected_exit, workdir):
    """Repeat the workload for args.seconds.

    The set-up repetitions count against the time budget, and fill what the
    workload repetitions leave of it; the warm-up does not.  Untraced, every
    repetition sits between two slots of reference kernel timings, and its
    `speed` is REF_NOMINAL_S over their mean.  Returns (runs, traced,
    setups, failures, reference kernel times).
    """
    runs, traced, setups, failures = [], [], [], []
    run_child("setup", argv, workdir, "warmup")  # compiles bytecode, warms file cache
    reference = None if args.trace else Reference()
    ref_times = reference.times if reference else []
    try:
        start = time.monotonic()
        slot = reference.slot(0.0) if reference else []

        def timed(mode, tag):
            nonlocal slot
            run = run_child(mode, argv, workdir, tag)
            if reference:
                after = reference.slot(run["wall_s"])
                run["speed"] = REF_NOMINAL_S / statistics.fmean(slot + after)
                slot = after
            return run

        if not args.trace:
            setups = [timed("setup", f"setup{i}") for i in range(SETUP_REPS)]
        modes = ["plain", "trace"] if args.trace else ["plain"]
        rep = 0
        while True:
            for mode in modes:
                run = timed(mode, f"{mode}{rep}")
                problems = check(run, workload.output, expected, expected_exit)
                if problems:
                    failures.append(problems)
                    print(f"# {mode} repetition {rep} failed: " + "; ".join(problems[:5]),
                          file=sys.stderr)
                (traced if mode == "trace" else runs).append(run)
            rep += 1
            elapsed = time.monotonic() - start
            typical = (elapsed - sum(r["wall_s"] for r in setups)) / rep
            if elapsed + typical > MAX_MEASURE_S:
                break
            if rep >= MIN_REPS - args.trace and elapsed + typical > args.seconds:
                break
        # what is left of the budget, less than one repetition, goes to set-up
        while setups and time.monotonic() - start + 2 * setups[-1]["wall_s"] < args.seconds:
            setups.append(timed("setup", f"setup{len(setups)}"))
    finally:
        if reference:
            reference.close()
    return runs, traced, setups, failures, ref_times


def end_to_end(workload, runs, setups, scaled=True) -> dict[str, list[float]]:
    """Samples of each end-to-end metric; timings in reference seconds if scaled."""
    def speed(r):
        return r["speed"] if scaled else 1.0

    return {
        "wall_s": [r["wall_s"] * speed(r) for r in runs],
        "setup_s": [r["setup_s"] * speed(r) for r in setups + runs if r.get("setup_s")],
        "points_per_s": [workload.points / (r["main_s"] * speed(r))
                         for r in runs if r.get("main_s")],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }


def per_layer(workload, spec_names, runs, traced) -> dict[str, list[float]]:
    samples = {name: [] for name in spec_names}
    for run in traced:
        stats = dict(run.get("layers") or {})
        stats.update(layers.import_times(run["stderr"]))
        if workload.output == "oracle":
            try:
                stats["oracle.max_abs_diff"] = golden.oracle_max_abs_diff(run["output"])
            except ValueError:
                pass  # a failed repetition, already counted
        for name in spec_names:
            if name != "trace.overhead_frac":
                samples[name].append(stats.get(name, 0.0))
    if "trace.overhead_frac" in samples:
        plain = median(r.get("main_s") for r in runs)
        traced_main = median(r.get("main_s") for r in traced)
        samples["trace.overhead_frac"] = [traced_main / plain - 1.0 if plain else 0.0]
    return samples


def main() -> int:
    # on SIGTERM, unwind so that every child is stopped and the scratch
    # directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "critent" / "cli.py").is_file():
        print(f"error: no critent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        entry = golden.load_manifest()[args.workload][str(variant_of(args.seed))]
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: benchmark definition or goldens unreadable: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    argv = workload.argv(variant_of(args.seed))
    if entry["argv"] != argv:
        print(f"error: golden was recorded for {entry['argv']}, workload runs {argv}",
              file=sys.stderr)
        return 2
    expected = (golden.GOLDEN_DIR / entry["file"]).read_text()

    print(f"# critent {' '.join(argv)}  (workload {args.workload}, seed {args.seed})")
    print("# provenance " + json.dumps(provenance(args, argv)))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runs, traced, setups, failures, ref_times = measure(
            args, workload, argv, expected, entry["exit"], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runs) + len(traced)
    if args.trace:
        specs = spec["per_layer"]
        samples = per_layer(workload, [m["name"] for m in specs], runs, traced)
    else:
        specs = spec["end_to_end"]
        samples = end_to_end(workload, runs, setups)
        raw = end_to_end(workload, runs, setups, scaled=False)
    metrics = {}
    for m in specs:
        values = samples[m["name"]]
        metrics[m["name"]] = {"value": median(values), "unit": m["unit"]}
        hi = tail(values)
        hi_text = f"  p{hi[0]:.0f} {hi[1]:.6g}" if hi else ""
        raw_text = ("" if args.trace or m["name"] == "peak_rss_mb"
                    else f"  raw median {median(raw[m['name']]):.6g}")
        print(f"{m['name']:<42} median {median(values):.6g} {m['unit']}{hi_text}"
              f"  (n={len(values)}){raw_text}")
    if ref_times:
        print(f"{'reference kernel':<42} mean {statistics.fmean(ref_times):.6g} s"
              f"  median {median(ref_times):.6g} s  (n={len(ref_times)},"
              f" nominal {REF_NOMINAL_S} s)")
    print(f"{'failed_frac':<42} {len(failures) / attempted:.6g} ratio"
          f"  ({len(failures)} of {attempted} runs)")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden outputs and the comparison that decides whether a run is correct.

Goldens are the CLI's own outputs and exit codes, recorded at the seed
commit by make_goldens.py and listed in goldens/manifest.json.  A run
passes when it exits with the golden's code, has the golden's rows, and
every value lies within the tolerance for its quantity below.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
MANIFEST = GOLDEN_DIR / "manifest.json"

# Absolute tolerances per quantity.
TOLERANCES = {
    # grid coordinates printed at 12 significant digits
    "coordinate": 1e-9,
    # entropies, MI and correlations in bits or units of 1; loose enough
    # for a change that keeps MI's relative precision for weak pairs,
    # where the seed prints rounding dust such as MI = 2.96e-17
    "value": 1e-8,
    # finite-difference derivatives divide value errors by the step 1e-4
    "peak": 1e-4,
    # peak locations sit on a 0.001 refinement grid; a near-tie may move
    # the argmax by one step
    "peak_location": 1e-3 + 1e-9,
    # fit coefficients and residuals computed from the peaks
    "fit": 1e-3,
}

SWEEP_KEYS = ("model", "T", "lambda", "N", "r")
SWEEP_VALUES = ("S_i", "S_j", "S_ij", "MI")
ORACLE_VALUES = ("free_fermion", "exact", "abs_diff")


def load_manifest() -> dict:
    with open(MANIFEST) as fh:
        return json.load(fh)


def _number(text: str):
    return None if text == "" else float(text)


def _close(actual, expected, tol: float) -> bool:
    if actual is None or expected is None:
        return actual is expected
    return abs(actual - expected) <= tol


def _csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _compare_sweep(actual: str, expected: str) -> list[str]:
    got, want = _csv_rows(actual), _csv_rows(expected)
    problems = []
    if len(got) != len(want):
        problems.append(f"{len(got)} rows, golden has {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        where = f"row {i + 1}"
        if g.get("model") != w["model"] or not all(
            _close(_number(g.get(k, "")), _number(w[k]), TOLERANCES["coordinate"])
            for k in SWEEP_KEYS[1:]
        ):
            problems.append(f"{where}: key {[g.get(k) for k in SWEEP_KEYS]}, "
                            f"golden {[w[k] for k in SWEEP_KEYS]}")
            continue
        if g.get("tag", "").startswith("error") and not w["tag"].startswith("error"):
            problems.append(f"{where}: error row the golden lacks: {g['tag']}")
            continue
        if g.get("tag") != w["tag"]:
            problems.append(f"{where}: tag {g.get('tag')!r}, golden {w['tag']!r}")
        for k in SWEEP_VALUES:
            a, e = _number(g.get(k) or ""), _number(w[k])
            if not _close(a, e, TOLERANCES["value"]):
                problems.append(f"{where}: {k} = {a}, golden {e}")
    return problems


def _compare_oracle(actual: str, expected: str) -> list[str]:
    got, want = _csv_rows(actual), _csv_rows(expected)
    problems = []
    if len(got) != len(want):
        problems.append(f"{len(got)} rows, golden has {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if (g.get("r"), g.get("quantity")) != (w["r"], w["quantity"]):
            problems.append(f"row {i + 1}: {g.get('r')},{g.get('quantity')}, "
                            f"golden {w['r']},{w['quantity']}")
            continue
        for k in ORACLE_VALUES:
            a, e = _number(g.get(k) or ""), _number(w[k])
            if not _close(a, e, TOLERANCES["value"]):
                problems.append(f"r={w['r']} {w['quantity']} {k} = {a}, golden {e}")
    return problems


_SCALING_TOLERANCE = {
    "peaks": "peak",
    "peak_locations": "peak_location",
    "coefficients": "fit",
    "residual_norm": "fit",
    "relative_residual": "fit",
    "relative_residual_linear": "fit",
}


def _compare_scaling(actual: str, expected: str) -> list[str]:
    try:
        got = json.loads(actual)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    want = json.loads(expected)
    problems = []
    for key, w in want.items():
        if key not in got:
            problems.append(f"missing {key}")
            continue
        g = got[key]
        tol_name = _SCALING_TOLERANCE.get(key)
        if tol_name is None:
            if g != w:
                problems.append(f"{key} = {g!r}, golden {w!r}")
            continue
        gs, ws = (g, w) if isinstance(w, list) else ([g], [w])
        if len(gs) != len(ws) or not all(
            isinstance(a, (int, float)) and _close(a, e, TOLERANCES[tol_name])
            for a, e in zip(gs, ws)
        ):
            problems.append(f"{key} = {g!r}, golden {w!r}")
    return problems


_COMPARATORS = {"sweep": _compare_sweep, "oracle": _compare_oracle,
                "scaling": _compare_scaling}


def compare(kind: str, actual: str, expected: str,
            exit_code: int, expected_exit: int) -> list[str]:
    """Problems found in one run's output; empty when it matches the golden."""
    problems = []
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code}, golden {expected_exit}")
    return problems + _COMPARATORS[kind](actual, expected)


def oracle_max_abs_diff(text: str) -> float:
    """The `max,all,,,<gap>` row of `oracle compare` CSV output."""
    for row in _csv_rows(text):
        if row.get("r") == "max":
            value = _number(row.get("abs_diff") or "")
            if value is not None and math.isfinite(value):
                return value
    raise ValueError("oracle output has no max row")

"""Sweep orchestration, finite-difference derivatives and scaling fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, repeat
from typing import NamedTuple

import numpy as np

from . import dimer, ising2d, tfim
from .errors import ConvergenceError

MI_IDENTITY_TOL = 1e-9

#: the sweep's columns, in SweepRecord order: the CSV header and the JSON keys
COLUMNS = ("model", "T", "lambda", "N", "r", "S_i", "S_j", "S_ij", "MI", "tag")
CSV_HEADER = ",".join(COLUMNS)

UNITS_COMMENTS = {
    "dimer": "# T in units of the Heisenberg coupling",
    "ising2d": "# T in units of Ising coupling; N in units of sqrt(2) lattice constant",
    "tfim": "# lambda: Ising coupling in units of the transverse field; r in lattice constants",
}


class SweepRecord(NamedTuple):
    """One sweep row; inapplicable fields are None (empty CSV columns)."""

    model: str
    T: float | None = None
    lam: float | None = None
    N: int | None = None
    r: int | None = None
    s_i: float | None = None
    s_j: float | None = None
    s_ij: float | None = None
    mi: float | None = None
    tag: str = ""


@dataclass(frozen=True)
class FitResult:
    """kind: power_law (y = amplitude x^b), log_linear / log_cubic
    (y = a + b ln^d x).  coefficients = (exponent,) or (a, b);
    residual_norm is the rms residual in the fit's own space."""

    kind: str
    coefficients: tuple
    amplitude: float | None
    residual_norm: float
    n_points: int
    x_range: tuple


def _log_law_fit(xs, ys, kind: str, powers) -> FitResult:
    """Least squares of v = sum_k c_k (ln x)^powers[k], with v = ln y for
    kind "power_law" (y = e^c_0 x^c_1) and v = y for the log laws.

    A ValueError, in this order: at the first non-finite coordinate, for
    too few points, for x <= 0 (or y <= 0, for a power law), and when the
    design's columns are dependent (all x equal, say), where lstsq would
    return its min-norm solution as if it were a fit.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    for name, values in (("x", xs), ("y", ys)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"fit needs finite coordinates: {name}[{bad[0]}] = {values[bad[0]]}")
    power_law, degree = kind == "power_law", powers[-1]
    law, needed = ("power-law fit", 4) if power_law else (f"log fit of degree {degree}", degree + 2)
    if len(xs) < needed:
        raise ValueError(f"{law} needs >= {needed} points")
    if np.any(xs <= 0) or power_law and np.any(ys <= 0):
        raise ValueError("power-law fit needs positive coordinates" if power_law
                         else "log fit needs positive x")
    lx = np.log(xs)
    values = np.log(ys) if power_law else ys
    design = np.column_stack([lx**k for k in powers])
    coeffs, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < design.shape[1]:
        raise ValueError(f"fit design has rank {rank} < {design.shape[1]} columns: "
                         "the x values do not fix the law")
    resid = values - design @ coeffs
    return FitResult(
        kind=kind,
        coefficients=(float(coeffs[1]),) if power_law else (float(coeffs[0]), float(coeffs[-1])),
        amplitude=float(math.exp(coeffs[0])) if power_law else None,
        residual_norm=float(np.sqrt(np.mean(resid**2))),
        n_points=len(xs),
        x_range=(float(xs.min()), float(xs.max())),
    )


def power_law_fit(xs, ys) -> FitResult:
    """Least squares of ln y on ln x: y = amplitude * x^exponent."""
    return _log_law_fit(xs, ys, "power_law", (0, 1))


def log_poly_fit(xs, ys, degree: int, full: bool = False) -> FitResult:
    """Least squares of y = a + b (ln x)^degree, degree in {1, 3}.

    With full=True the design carries every power of ln x up to `degree`
    (diagnostic); the reported coefficients are still (a, b_leading).  It
    changes only the cubic law: the full degree-1 design is the plain one.
    """
    if degree not in (1, 3):
        raise ValueError("degree must be 1 or 3")
    powers = range(degree + 1) if full else (0, degree)
    return _log_law_fit(xs, ys, "log_linear" if degree == 1 else "log_cubic", powers)


def _relative_residual(fit: FitResult, values) -> float:
    """The fit's rms residual over the range of the fitted values; inf
    when they are all equal."""
    spread = max(values) - min(values)
    return float(fit.residual_norm / spread) if spread else math.inf


# model -> (row axis, column axis or None, evaluator of the rows x columns
# grid at the fixed parameters: ((S_i, S_ij, MI) shaped like the grid, tag))
_MODELS = {
    "dimer": ("T", None, lambda ts, _, fixed: (dimer.entropies(ts), "")),
    "ising2d": ("T", "N", lambda ts, ns, fixed: (
        ising2d.entropies(ts, ns, fixed["ensemble"]), fixed["ensemble"])),
    "tfim": ("lam", "r", lambda lams, rs, fixed: (
        tfim.entropies(lams, fixed["T"], fixed["N"], rs, fixed["sector"]), fixed["sector"])),
}


def _check_mi_identity(s_i, s_ij, mi, rows) -> None:
    """AssertionError at the first row whose MI is negative or off S_i + S_j
    - S_ij by more than MI_IDENTITY_TOL; a NaN fails neither comparison."""
    gap = np.abs(mi - (s_i + s_i - s_ij))
    bad = np.flatnonzero((gap > MI_IDENTITY_TOL) | (mi < 0))
    if bad.size:
        raise AssertionError(f"MI identity violated by {gap[bad[0]]:.3e} at {rows[bad[0]]}")


def sweep(model: str, axes: dict, fixed: dict | None = None):
    """Evaluate `model` over the grid of its axes, rows x columns (a
    dimer grid is one column).

    `axes` holds exactly the model's grid axes: T for dimer, (T, N) for
    ising2d and (lam, r) for tfim; every other parameter goes in `fixed`
    (tfim T, N and sector; ising2d ensemble).  Rows come out row-major, in
    the order of the axes' values.  The grid is one batch, one evaluator
    call (dimer.entropies, ising2d.entropies, tfim.entropies): one kernel
    call for all its points.  Its rows are one map(SweepRecord, ...) over
    its columns, and the MI identity is checked once per evaluated grid: a
    violation is an AssertionError, never an error row.  A point that
    fails with a domain error (ValueError, ConvergenceError) becomes an
    error row (tag = "error: ...") instead of aborting the sweep: a grid
    that raises one is evaluated again one row (one temperature or
    coupling) at a time, and a row that raises one point by point, so each
    error row carries its own point's message.  Any other exception
    propagates.  A sweep shares no mutable state, so calls running at once
    on several threads give the bytes of serial calls.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}")
    row_axis, col_axis, evaluate = _MODELS[model]
    names = [a for a in (row_axis, col_axis) if a]
    if set(axes) != set(names):
        raise ValueError(f"{model} sweeps the grid axes {', '.join(names)}, not "
                         f"{', '.join(sorted(axes)) or 'none'}; every other parameter goes in fixed")
    fixed = {"ensemble": "symmetric", "sector": "even", **(fixed or {})}

    def records(rows, cols, s_i, s_ij, mi, tag):
        # the T, lam, N, r columns of the rows x cols grid, row-major
        axis = {row_axis: [x for x in rows for _ in cols], col_axis: cols * len(rows)}
        params = (axis[k] if k in axis else repeat(fixed.get(k)) for k in ("T", "lam", "N", "r"))
        return list(map(SweepRecord, repeat(model), *params, s_i, s_i, s_ij, mi, repeat(tag)))

    def run(rows, cols):
        try:
            values, tag = evaluate(rows, cols, fixed)
        except (ValueError, ConvergenceError) as exc:
            if len(rows) > 1:
                return [rec for x in rows for rec in run([x], cols)]
            if len(cols) > 1:
                return [rec for y in cols for rec in run(rows, [y])]
            return records(rows, cols, [None], [None], [None], f"error: {exc}")
        s_i, s_ij, mi = (np.ravel(v) for v in values)
        grid = records(rows, cols, s_i.tolist(), s_ij.tolist(), mi.tolist(), tag)
        _check_mi_identity(s_i, s_ij, mi, grid)
        return grid

    rows = list(axes[row_axis])
    cols = list(axes[col_axis]) if col_axis else [None]
    if not rows or not cols:
        return []
    return run(rows, cols)


# ---------------------------------------------------------------------------
# scaling drivers (declared fit policies; grids recorded in the results)
# ---------------------------------------------------------------------------

#: temperature offsets from T_c for the derivative-exponent fits
BELOW_TC_OFFSETS = tuple(np.geomspace(1e-3, 1e-1, 15))
#: the log law holds in the near-critical window; beyond ~1/(2.2 N) the
#: exponential collapse of the correlation bends the curve away from ln t
ABOVE_TC_OFFSETS = tuple(np.geomspace(1e-3, 3e-2, 12))
#: lambda-derivative step for the scaling fits; the default 1e-3 step
#: smears the critical window (~1/N) once N reaches a few thousand
SCALING_STEP = 1e-4
NN_SCALING_SITES = (64, 128, 256, 512, 1024, 2048, 4096)
FAR_SCALING_SITES = (32, 64, 128, 256, 512)


def _central_differences(mi_at, xs, steps) -> np.ndarray:
    """(f(x + h) - f(x - h)) / (2h) at each x with its step h (one for
    all, or one per x), the whole stencil x +- h in one call of mi_at = f."""
    xs, steps = np.broadcast_arrays(np.asarray(xs, dtype=float), steps)
    plus, minus = np.split(mi_at(np.concatenate([xs + steps, xs - steps])), 2)
    return (plus - minus) / (2.0 * steps)


#: side -> (offsets from T_c, sign of T - T_c, fit of the derivatives ys
#: against the offsets xs)
_EXPONENT_SIDES = {
    "below": (BELOW_TC_OFFSETS, -1.0, lambda xs, ys: power_law_fit(xs, np.abs(ys))),
    "above": (ABOVE_TC_OFFSETS, +1.0, lambda xs, ys: log_poly_fit(xs, ys, degree=1)),
}


def ising2d_derivative_exponent(side: str, separation: int = 30) -> dict:
    """dMI/dT critical laws at fixed separation (symmetric ensemble).

    side="below": power-law fit of |dMI/dT| against T_c - T.  The large-N
    law is (T_c - T)^(-1/2): MI ~ G^2/(2 ln 2) and G -> m^2 ~ (T_c - T)^(1/4),
    while -3/4 is the exponent of d(m^2)/dT.  The fit reaches it only when
    the window lies in the scaling regime N (T_c - T) >> 1: over the default
    offsets it gives -0.31 at N = 30 (finite-size crossover) and -0.48 at
    N = 800, against -0.487 for the N -> inf closed form.
    side="above": linear fit of dMI/dT against ln(T - T_c).
    Returns the FitResult, its relative residual and the grids used.
    """
    if side not in _EXPONENT_SIDES:
        raise ValueError("side must be 'below' or 'above'")
    offsets, sign, fit_law = _EXPONENT_SIDES[side]
    offsets = np.array(offsets)
    derivs = _central_differences(
        lambda ts: ising2d.entropies(ts, [separation])[2][:, 0],
        ising2d.critical_temperature() + sign * offsets,
        np.minimum(1e-3, offsets / 10.0),  # clear of the singularity at T_c
    )
    fit = fit_law(offsets, derivs)
    return {
        "offsets": offsets.tolist(),
        "derivatives": derivs.tolist(),
        "fit": fit,
        "relative_residual": _relative_residual(fit, derivs),
    }


def _tfim_derivatives(couplings, sites: int, separation: int) -> np.ndarray:
    """Central differences of the T = 0 MI(0, r) at each coupling: the
    whole stencil lambda +- SCALING_STEP is one batch."""
    return _central_differences(
        lambda lams: tfim.entropies(lams, 0.0, sites, [separation])[2][:, 0],
        couplings, SCALING_STEP,
    )


def tfim_nn_scaling(sites_list=NN_SCALING_SITES) -> dict:
    """dMI(0,1)/dlambda at lambda = 1 against ln N (log-linear fit)."""
    derivs = [float(_tfim_derivatives([1.0], n, 1)[0]) for n in sites_list]
    fit = log_poly_fit(np.array(sites_list, dtype=float), derivs, degree=1)
    return {
        "sites": list(sites_list),
        "derivatives": derivs,
        "fit": fit,
        "relative_residual": _relative_residual(fit, derivs),
    }


def tfim_peak_far_derivative(sites: int) -> tuple[float, float]:
    """Max over lambda of dMI(0, N/2)/dlambda: coarse 0.005 grid on
    [0.9, 1.15], then one refinement by a factor of 5 around the peak."""
    coarse = np.arange(0.9, 1.15 + 1e-12, 0.005)
    best = int(np.argmax(_tfim_derivatives(coarse, sites, sites // 2)))
    fine = coarse[best] + np.arange(-4, 5) * 0.001
    fvals = _tfim_derivatives(fine, sites, sites // 2)
    fbest = int(np.argmax(fvals))
    return float(fine[fbest]), float(fvals[fbest])


def tfim_far_scaling(sites_list=FAR_SCALING_SITES) -> dict:
    """Peak of dMI(0, N/2)/dlambda against ln^3 N, with the ln N fit as a
    comparison model."""
    peaks = []
    locations = []
    for n in sites_list:
        lam, val = tfim_peak_far_derivative(n)
        locations.append(lam)
        peaks.append(val)
    xs = np.array(sites_list, dtype=float)
    fit_cubic = log_poly_fit(xs, peaks, degree=3)
    fit_linear = log_poly_fit(xs, peaks, degree=1)
    return {
        "sites": list(sites_list),
        "peak_locations": locations,
        "peaks": peaks,
        "fit": fit_cubic,
        "fit_linear": fit_linear,
        "relative_residual": _relative_residual(fit_cubic, peaks),
        "relative_residual_linear": _relative_residual(fit_linear, peaks),
    }


# a cell's %-format by its type; any other type (float, numpy scalar) is
# %.12g, and "%.0s" consumes a None and prints nothing
_CELL_FORMATS = {type(None): "%.0s", int: "%d", str: "%s"}


def csv_text(lines, rows) -> str:
    """The given comment and header lines, then one line per row of cells:
    None empty, int in decimal, str as is and any other number at 12
    significant digits (-0.0 prints -0, NaN nan).  Each run of rows with
    the same cell types is one template, applied by one %-format per row."""
    out = list(lines)
    for types, run in groupby(rows, lambda row: tuple(map(type, row))):
        template = ",".join([_CELL_FORMATS.get(t, "%.12g") for t in types])
        out += map(template.__mod__, run)
    return "\n".join(out) + "\n"


def records_to_csv(records) -> str:
    """The sweep CSV: the units comment of each model present, sorted by
    model, the COLUMNS header, then one csv_text line per record."""
    return csv_text([*(UNITS_COMMENTS[name] for name in sorted({r.model for r in records})
                       if name in UNITS_COMMENTS), CSV_HEADER], records)


def _finite_or_none(value):
    """JSON has no NaN or infinity: such a parameter is written as null."""
    return value if value is None or math.isfinite(value) else None


def records_to_json(records) -> dict:
    """JSON payload matching schemas/sweep.schema.json: one object per
    record, keyed by COLUMNS in their order; a non-finite T or lambda (an
    error row's parameter) is null."""
    return {"records": [dict(zip(COLUMNS, rec._replace(
        T=_finite_or_none(rec.T), lam=_finite_or_none(rec.lam)))) for rec in records]}

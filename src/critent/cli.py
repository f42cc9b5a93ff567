"""Command-line surface.

Subcommands: dimer, ising2d corr|mi|sweep|exponents, tfim mi|sweep|scaling,
oracle compare, fit power|log|logcube, props.  Output is CSV (stable
header, 12 significant digits, deterministic row order) or JSON validating
against the schemas shipped in critent/schemas/.

Exit codes: 0 success, 1 validation/usage error, 2 numerical
non-convergence, 3 acceptance-check failure (oracle compare, exponents and
scaling in --check mode, props).

A JSON config file (--config) may supply any long option, underscored
(e.g. {"t_min": 0.1}); explicit flags override it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import asdict
from itertools import repeat

import numpy as np

from . import analysis, density, dimer, exact, ising2d, tfim
from .analysis import FitResult
from .errors import ConvergenceError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2
EXIT_CHECK_FAILED = 3


class CheckFailure(Exception):
    """An acceptance-style check did not pass (exit code 3)."""


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _emit_json(payload: dict, path: str | None) -> None:
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", path)


def _one_format(args, only: str) -> None:
    """Actions that write one format refuse an explicit --format of the other."""
    if args.format not in (None, only):
        raise ValueError(f"{args.command} {args.action} writes {only.upper()} only")


def _grid(lo: float, hi: float, count: int, flag: str) -> np.ndarray:
    """count points from lo to hi, the options {flag}-min and {flag}-max;
    one point is lo as given, even inf, NaN or -0.0."""
    if count < 1:
        raise ValueError("grid count must be >= 1")
    if count == 1:
        return np.array([lo])
    # linspace turns a finite endpoint into NaN when the other is not finite
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{flag}-min and {flag}-max must be finite when {flag}-count > 1")
    return np.linspace(lo, hi, count)


def _separations(lo: int, hi: int, step: int, flag: str) -> list:
    if step < 1:
        raise ValueError(f"{flag} must be >= 1")
    return list(range(lo, hi + 1, step))


def _finite_temperatures(*temperatures) -> None:
    """The dimer, tfim and oracle commands take T = inf as a usage error:
    JSON has no infinity to print it with, and CSV follows suit."""
    if any(math.isinf(t) for t in temperatures):
        raise ValueError("temperature must be finite")


def _fit_payload(fit: FitResult, **extra) -> dict:
    payload = asdict(fit)
    if fit.kind == "power_law":
        payload["exponent"] = fit.coefficients[0]
    payload.update(extra)
    return payload


def _sweep(args, model: str, axes: dict, **fixed) -> int:
    """Every sweep command: the model's grid, written as CSV or JSON."""
    records = analysis.sweep(model, axes=axes, fixed=fixed)
    if args.format == "json":
        _emit_json(analysis.records_to_json(records), args.output)
    else:
        _emit(analysis.records_to_csv(records), args.output)
    return EXIT_OK


def _fit_report(args, label: str, fit: FitResult, ok: bool, **extra) -> int:
    """Every fitted-law report: the fit and its extra keys as one JSON
    object, with "passed" under --check, where a missed check exits 3."""
    payload = _fit_payload(fit, **extra)
    if args.check:
        payload["passed"] = ok
    _emit_json(payload, args.output)
    if args.check and not ok:
        raise CheckFailure(label)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_dimer(args) -> int:
    _finite_temperatures(args.t_min, args.t_max)
    return _sweep(args, "dimer", {"T": _grid(args.t_min, args.t_max, args.t_count, "--t")})


def _cmd_ising2d(args) -> int:
    if args.action == "corr":
        _one_format(args, "csv")
        seps = range(args.n_min, args.n_max + 1)
        values = ising2d.diagonal_correlations([args.t], seps)[0].tolist() if seps else []
        _emit(analysis.csv_text(["# T in units of Ising coupling", "model,T,N,correlation"],
                                zip(repeat("ising2d"), repeat(args.t), seps, values)), args.output)
        return EXIT_OK
    if args.action in ("mi", "sweep"):
        # mi is the one-temperature grid, every N from --n-min to --n-max
        one_t = args.action == "mi"
        return _sweep(args, "ising2d", {
            "T": [args.t] if one_t else _grid(args.t_min, args.t_max, args.t_count, "--t"),
            "N": _separations(args.n_min, args.n_max, 1 if one_t else args.n_step, "--n-step"),
        }, ensemble=args.ensemble)
    # exponents
    _one_format(args, "json")
    result = analysis.ising2d_derivative_exponent(args.side, args.n)
    fit, residual = result["fit"], result["relative_residual"]
    if args.side == "below":
        ok = abs(fit.coefficients[0] - (-0.5)) <= 0.05
        check = {"target_exponent": -0.5, "tolerance": 0.05, "passed": ok}
    else:
        ok = residual < 0.05
        check = {"max_relative_residual": 0.05, "passed": ok}
    return _fit_report(args, f"ising2d exponents --side {args.side}", fit, ok,
                       side=args.side, separation=args.n, relative_residual=residual,
                       **({"check": check} if args.check else {}))


def _cmd_tfim(args) -> int:
    _finite_temperatures(args.t)
    if args.action in ("mi", "sweep"):
        # mi is the one-coupling grid
        return _sweep(args, "tfim", {
            "lam": ([getattr(args, "lambda")] if args.action == "mi" else
                    _grid(args.lambda_min, args.lambda_max, args.lambda_count, "--lambda")),
            "r": _separations(args.r_min, args.r_max, args.r_step, "--r-step"),
        }, T=args.t, N=args.n, sector=args.sector)
    # scaling
    _one_format(args, "json")
    if args.kind == "nn":
        result = analysis.tfim_nn_scaling()
        keys = ("sites", "derivatives", "relative_residual")
        ok = result["relative_residual"] < 0.05
    else:
        result = analysis.tfim_far_scaling()
        keys = ("sites", "peaks", "peak_locations", "relative_residual",
                "relative_residual_linear")
        ok = (result["relative_residual"] < 0.10
              and result["fit"].residual_norm < result["fit_linear"].residual_norm)
    fit = result["fit"]
    return _fit_report(args, f"tfim scaling --kind {args.kind}", fit,
                       fit.coefficients[1] > 0 and ok,
                       kind_of_scaling=args.kind, **{key: result[key] for key in keys})


ORACLE_QUANTITIES = ("mz", "gxx", "gyy", "gzz", "MI")


def _cmd_oracle(args) -> int:
    _finite_temperatures(args.t)
    if not 0.0 <= args.max_abs_diff < math.inf:
        raise ValueError("--max-abs-diff must be a finite number >= 0")
    lam = getattr(args, "lambda")
    seps = [args.r] if args.r is not None else list(range(1, args.n // 2 + 1))
    # both sides' parameter checks before the diagonalization: exact's ring
    # range first, then tfim.check_grid (an even ring, N >= 4); the free
    # grid runs after it, so what it loads (numpy.fft, the windows) is not
    # resident under the block eigh peak
    exact.check_ring(args.n, lam)
    tfim.check_grid([lam], args.t, args.n, seps)
    *oracle, ground_energy = exact.observables(args.n, lam, args.t, seps)
    mz, gxx, gyy, gzz, czz = tfim.correlations([lam], args.t, args.n, seps)
    mi = density.two_site_entropies(mz[:, None], gxx, gyy, gzz, czz)[2]
    # (separations, quantities) arrays, columns in ORACLE_QUANTITIES order;
    # the free side is the one row of its grid
    free, ed = (np.column_stack(np.broadcast_arrays(*values)) for values in
                ((mz[0], gxx[0], gyy[0], gzz[0], mi[0]), oracle))
    table = list(zip(seps, free.tolist(), ed.tolist(), np.abs(free - ed).tolist()))
    worst = max(0.0, *(max(d) for *_, d in table))
    if args.format == "json":
        rows = [{"r": r, "free_fermion": dict(zip(ORACLE_QUANTITIES, f)),
                 "exact": dict(zip(ORACLE_QUANTITIES, e)),
                 "abs_diff": dict(zip(ORACLE_QUANTITIES, d)), "max_abs_diff": max(d)}
                for r, f, e, d in table]
        _emit_json({"N": args.n, "lambda": lam, "T": args.t,
                    "ground_energy": ground_energy, "rows": rows,
                    "max_abs_diff": worst, "threshold": args.max_abs_diff,
                    "passed": worst <= args.max_abs_diff}, args.output)
    else:
        rows = [(r, *cells) for r, *values in table
                for cells in zip(ORACLE_QUANTITIES, *values)]
        _emit(analysis.csv_text(["r,quantity,free_fermion,exact,abs_diff"],
                                [*rows, ("max", "all", None, None, worst)]), args.output)
    if worst > args.max_abs_diff:
        raise CheckFailure(f"oracle divergence {worst:.3e} exceeds {args.max_abs_diff:.3e}")
    return EXIT_OK


def _read_xy(path: str, x_col: str | None, y_col: str | None):
    import csv as _csv

    with open(path, newline="") as fh:
        rows = [r for r in _csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows:
        raise ValueError(f"{path} holds no header or data rows")
    header, data = rows[0], rows[1:]
    if (x_col is None) != (y_col is None):
        raise ValueError("--x-col and --y-col go together")
    for col in (x_col, y_col):
        if col is not None and col not in header:
            raise ValueError(f"{path} has no column {col!r}; its header is {','.join(header)}")
    xi, yi = (0, 1) if x_col is None else (header.index(x_col), header.index(y_col))
    xs, ys = [], []
    for row in data:
        try:
            xs.append(float(row[xi]))
            ys.append(float(row[yi]))
        except (ValueError, IndexError):
            continue  # skip non-numeric rows (error rows, blanks)
    return np.array(xs), np.array(ys)


def _cmd_fit(args) -> int:
    xs, ys = _read_xy(args.input, args.x_col, args.y_col)
    if args.action == "power":
        fit = analysis.power_law_fit(xs, ys)
    else:
        fit = analysis.log_poly_fit(xs, ys, degree=1 if args.action == "log" else 3, full=args.full)
    _emit_json(_fit_payload(fit), args.output)
    return EXIT_OK


def _cmd_props(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    trials, draw = range(args.trials), density.random_density_matrix
    # the draws in suite order: rho then sigma per Klein trial, the MI
    # trials at (2, 2) then (2, 3), two one-site states per product trial
    klein = [density.relative_entropy(draw((4,), rng), draw((4,), rng)) for _ in trials]
    states = [draw(dims, rng) for dims in ((2, 2), (2, 3)) for _ in trials]
    mis = [density.mutual_information(rho) for rho in states]
    gaps = [abs(density.relative_entropy(rho, density.tensor_product(
        density.partial_trace(rho, {0}), density.partial_trace(rho, {1}))) - mi)
        for rho, mi in zip(states, mis)]
    products = [density.mutual_information(density.tensor_product(draw((2,), rng), draw((2,), rng)))
                for _ in trials]
    # the worst value of each suite; a NaN never replaces the start value
    klein, mi, gap, product = (min(math.inf, *klein), min(math.inf, *mis),
                               max(0.0, *gaps), max(0.0, *products))
    suites = (("klein-inequality", klein >= -1e-9, f"min = {klein:.3e}"),
              ("mi-nonnegative", mi >= -1e-9, f"min = {mi:.3e}"),
              ("mi-equals-relative-entropy", gap <= 1e-9, f"max gap = {gap:.3e}"),
              ("product-state-mi-zero", product < 1e-9, f"max = {product:.3e}"))
    for name, passed, detail in suites:
        print(f"{'PASS' if passed else 'FAIL'} {name} ({detail})")
    failures = [name for name, passed, _ in suites if not passed]
    if failures:
        raise CheckFailure(f"property suites failed: {', '.join(failures)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

PHYSICS_DEFAULTS = (
    "Physics defaults: ensemble=symmetric, sector=even, temperature-derivative "
    "step min(1e-3, |T-Tc|/10), coupling-derivative step 1e-4 for scaling fits."
)


def _add_common(parser, *, output=True, fmt=True):
    parser.epilog = PHYSICS_DEFAULTS
    parser.add_argument("--config", help="JSON file of option defaults")
    if output:
        parser.add_argument("--output", help="write to this path instead of stdout")
    if fmt:
        parser.add_argument("--format", choices=("csv", "json"),
                            help="default csv; ising2d exponents and tfim scaling "
                            "write JSON only, ising2d corr CSV only")


def _dimer_options(p):
    p.add_argument("--t-min", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--t-count", type=int, default=100)
    _add_common(p)


def _ising2d_options(p):
    p.add_argument("action", choices=("corr", "mi", "sweep", "exponents"))
    p.add_argument("--t", type=float, default=ising2d.critical_temperature(),
                   help="temperature (default: critical)")
    p.add_argument("--t-min", type=float, default=1.5)
    p.add_argument("--t-max", type=float, default=3.5)
    p.add_argument("--t-count", type=int, default=21)
    p.add_argument("--n", type=int, default=30, help="separation for exponents")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--ensemble", choices=ising2d.ENSEMBLES, default="symmetric")
    p.add_argument("--side", choices=("below", "above"), default="below")
    p.add_argument("--check", action="store_true",
                   help="exit 3 unless the fitted law matches the expected band: "
                   "exponent -0.5 +- 0.05 below Tc (reached once --n puts the "
                   "window in the scaling regime, N (Tc - T) >> 1), relative "
                   "residual < 0.05 of the ln(T - Tc) law above")
    _add_common(p)


def _tfim_options(p):
    p.add_argument("action", choices=("mi", "sweep", "scaling"))
    p.add_argument("--lambda", type=float, default=1.0)
    p.add_argument("--lambda-min", type=float, default=0.0)
    p.add_argument("--lambda-max", type=float, default=2.0)
    p.add_argument("--lambda-count", type=int, default=41)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--n", type=int, default=1000, help="ring size")
    p.add_argument("--r-min", type=int, default=1)
    p.add_argument("--r-max", type=int, default=50)
    p.add_argument("--r-step", type=int, default=1)
    p.add_argument("--sector", choices=tfim.SECTORS, default="even",
                   help="momentum grid of the single-sector thermal formulas "
                   "(even, odd), or the exact parity-projected Gibbs state "
                   "(gibbs)")
    p.add_argument("--kind", choices=("nn", "far"), default="nn",
                   help="scaling: nearest-neighbour (ln N) or farthest pair (ln^3 N)")
    p.add_argument("--check", action="store_true")
    _add_common(p)


def _oracle_options(p):
    p.add_argument("action", choices=("compare",))
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--lambda", type=float, default=1.0)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--r", type=int, default=None,
                   help="single separation (default: all r <= N/2)")
    p.add_argument("--max-abs-diff", type=float, default=1e-8)
    _add_common(p)


def _fit_options(p):
    p.add_argument("action", choices=("power", "log", "logcube"))
    p.add_argument("--input", required=True)
    p.add_argument("--x-col", default=None)
    p.add_argument("--y-col", default=None)
    p.add_argument("--full", action="store_true",
                   help="log fits: carry every power of ln x (diagnostic); changes "
                        "only logcube, as the full degree-1 design is the plain one")
    _add_common(p, fmt=False)


def _props_options(p):
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=12345)
    _add_common(p, output=False, fmt=False)


# name: (help, options, handler), in the order `critent --help` lists them
SUBCOMMANDS = {
    "dimer": ("dimer MI against temperature", _dimer_options, _cmd_dimer),
    "ising2d": ("2D Ising correlations and MI", _ising2d_options, _cmd_ising2d),
    "tfim": ("transverse-field Ising chain MI", _tfim_options, _cmd_tfim),
    "oracle": ("exact-diagonalization comparison", _oracle_options, _cmd_oracle),
    "fit": ("fit a CSV's (x, y) columns", _fit_options, _cmd_fit),
    "props": ("random-state property suites", _props_options, _cmd_props),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `critent` parser.  Every subcommand is registered, so the top
    level's usage, help and errors are the same either way; with a
    command name only that subcommand gets its options, which is all a
    parse of that command reads."""
    parser = argparse.ArgumentParser(
        prog="critent",
        description="Two-site mutual information in exactly solvable spin models. "
        "Defaults: ensemble=symmetric, sector=even, derivative steps "
        "min(1e-3, |T-Tc|/10) in T and 1e-4 in lambda for scaling fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options, handler) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            add_options(p)
            p.set_defaults(func=handler)
    return parser


def _config_value(action, key, value):
    """A config value checked as a flag is: of the option's type (a number
    for a float option, true/false for a switch) and among its choices."""
    kinds = ((bool,) if action.nargs == 0
             else {int: (int,), float: (int, float)}.get(action.type, (str,)))
    if isinstance(value, bool) != (kinds == (bool,)) or not isinstance(value, kinds):
        raise ValueError(f"config key {key!r}: {value!r} is not of type {kinds[-1].__name__}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return float(value) if action.type is float else value


def _apply_config(parser: argparse.ArgumentParser, args, argv):
    """The command's options with the config's values as their defaults,
    parsed again, so any flag given (abbreviated or not) wins."""
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config {args.config} does not hold a JSON object")
    (commands,) = (a for a in parser._actions if a.dest == "command")
    command = commands.choices[args.command]
    options = {a.dest: a for a in command._actions if a.option_strings and hasattr(args, a.dest)}
    defaults = {}
    for key, value in config.items():
        key = key.replace("-", "_")
        if key not in options:
            raise ValueError(f"config key {key!r} is not an option here")
        defaults[key] = _config_value(options[key], key, value)
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """The `critent` process entry point: parse argv, run the command and
    return its exit code.  It freezes the heap (gc.freeze), so in-process
    callers such as the tests keep the frozen objects: reference counting
    still frees them, but cycles among them are never collected."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # a new parser per call, since _apply_config writes into it; only the
    # command argv names gets its options (any other argv[0]: every command)
    parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    # O(1): everything alive now (modules, numpy's objects, the parser)
    # leaves the cyclic GC, so neither the run's collections nor the one at
    # interpreter exit walk or tear it down; the OS reclaims it at exit
    gc.freeze()
    try:
        args = _apply_config(parser, args, argv)
        return args.func(args)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

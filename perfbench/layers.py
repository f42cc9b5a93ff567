"""Outside-in per-layer tracing of the critent package.

`install()` wraps every public function of the traced modules and puts the
wrapper in place of the original wherever a critent module holds it.  The
models bind kernels with `from .numerics import toeplitz_determinant` and
the like, so patching only the defining module would leave those callers
on the original and record no calls.

Each wrapped call records a span (name, parent, start, end) in memory; a
layer's self time is its span's duration minus the part of that interval
its child spans cover.  A few hooks add work counts measured where the
work happens (determinant sizes, coefficient terms, symbol samples, sweep
rows).
"""

from __future__ import annotations

import inspect
import sys
import time

TRACED_MODULES = ("ising2d", "tfim", "numerics", "density", "analysis", "exact", "cli")

# tfim.correlation_mi calls made under these spans count as analysis.mi_evals
SCALING_DRIVERS = ("analysis.tfim_far_scaling", "analysis.tfim_nn_scaling")


class Tracer:
    """Spans kept as [name, parent index, start, end] plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][2], spans[parent][3]
            children.setdefault(parent, []).append((max(start, p_start), min(end, p_end)))
    return [
        (end - start) - _covered(children.get(i, ()))
        for i, (name, parent, start, end) in enumerate(spans)
    ]


def _hooks(tracer: Tracer):
    """name -> hook(bound arguments, result) -> result, for counted work."""
    import numpy as np

    def determinant(a, result):
        tracer.count("numerics.toeplitz_determinant.dim3_sum", int(a["dim"]) ** 3)
        return result

    def tfim_window(a, result):
        tracer.count("tfim.coefficient_window.terms", int(a["sites"]) * (2 * int(a["n_max"]) + 1))
        return result

    def symbol(a, result):
        def counted(theta):
            tracer.count("ising2d.symbol_samples", np.size(theta))
            return result(theta)
        return counted

    def sweep(a, result):
        tracer.count("analysis.sweep.points", len(result))
        tracer.count("analysis.sweep.error_rows",
                     sum(rec.tag.startswith("error") for rec in result))
        return result

    return {
        "numerics.toeplitz_determinant": determinant,
        "tfim.coefficient_window": tfim_window,
        "ising2d.correlation_symbol": symbol,
        "analysis.sweep": sweep,
    }


def _wrap(tracer: Tracer, name: str, fn, hook):
    if hook is None:
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
    else:
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return hook(bound.arguments, result)

    wrapper.__wrapped__ = fn
    return wrapper


def public_functions(module):
    """Functions a module defines whose names do not start with '_'."""
    return {
        attr: obj for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not attr.startswith("_")
    }


def install(tracer: Tracer):
    """Wrap the traced modules' public functions; returns a restore callable."""
    import importlib

    hooks = _hooks(tracer)
    wrappers = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"critent.{short}")
        for attr, fn in public_functions(module).items():
            name = f"{short}.{attr}"
            wrappers[id(fn)] = _wrap(tracer, name, fn, hooks.get(name))
    replaced = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "critent" and not mod_name.startswith("critent."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
                replaced.append((module, attr, obj))

    def restore():
        for module, attr, obj in replaced:
            setattr(module, attr, obj)

    return restore


def layer_stats(tracer: Tracer) -> dict[str, float]:
    """`<module>.<function>.{self_s,calls}` for every traced call, the hook
    counters, the derived cache ratio and analysis.mi_evals."""
    stats = dict(tracer.counters)
    spans = tracer.spans
    for (name, parent, start, end), own in zip(spans, self_times(spans)):
        stats[f"{name}.self_s"] = stats.get(f"{name}.self_s", 0.0) + own
        stats[f"{name}.calls"] = stats.get(f"{name}.calls", 0) + 1
    windows = stats.get("ising2d.coefficient_window.calls", 0)
    builds = stats.get("numerics.fourier_window.calls", 0)
    stats["ising2d.window_cache_hit_ratio"] = 1.0 - builds / windows if windows else 0.0
    mi_evals = 0
    for name, parent, _, _ in spans:
        if name != "tfim.correlation_mi":
            continue
        while parent >= 0 and spans[parent][0] not in SCALING_DRIVERS:
            parent = spans[parent][1]
        mi_evals += parent >= 0
    stats["analysis.mi_evals"] = mi_evals
    return stats


def import_times(importtime_log: str) -> dict[str, float]:
    """Cumulative import seconds from `python -X importtime` output:
    scipy.special wherever it is first imported, and the top-level imports
    of the critent package and its cli module."""
    out = {"import.scipy.special.cum_s": 0.0, "import.critent.cli.cum_s": 0.0}
    seen_special = False
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|", 2)
        try:
            cum_s = int(cum) * 1e-6
        except ValueError:
            continue  # the header line
        depth = len(name) - len(name.lstrip(" ")) - 1
        name = name.strip()
        if name == "scipy.special" and not seen_special:
            out["import.scipy.special.cum_s"] = cum_s
            seen_special = True
        if depth == 0 and (name == "critent" or name.startswith("critent.")):
            out["import.critent.cli.cum_s"] += cum_s
    return out

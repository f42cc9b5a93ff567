"""The four benchmark workloads and the CLI arguments each seed gives them.

Seed 0 runs the CLI defaults, the paper's figures, except that the TFIM
sweep takes 11 couplings instead of 41.  Any other seed runs one
of three held variants whose grid endpoints are shifted by a small offset
drawn from a generator seeded with the variant number, so that every seed
the benchmark accepts has a golden output recorded at the seed commit:

    variant(0) = 0,  variant(s) = 1 + (s - 1) mod 3  for s > 0.

Point counts never change, so the work per run stays the same up to the
quadrature refinement the shifted temperatures need.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

VARIANTS = 4

# 2D Ising critical temperature 2 / asinh(1); sweep temperatures stay at
# least this far from it, clear of the |T - Tc| < 1e-5 window where the
# quadrature cannot converge.
ISING_TC = 2.0 / math.asinh(1.0)
ISING_TC_CLEARANCE = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    output: str  # how golden.compare parses the output: sweep, scaling or oracle
    points: int  # output points: rows of a sweep, sizes of a fit, separations
    make_argv: Callable  # seeded generator, or None for the CLI defaults

    def argv(self, variant: int) -> list[str]:
        return self.make_argv(random.Random(variant) if variant else None)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _ising_sweep(rng):
    argv = ["ising2d", "sweep"]
    if rng is None:
        return argv
    while True:
        t_min = 1.5 + rng.uniform(-0.05, 0.05)
        t_max = 3.5 + rng.uniform(-0.05, 0.05)
        lo, hi = float(_fmt(t_min)), float(_fmt(t_max))
        grid = [lo + (hi - lo) * k / 20 for k in range(21)]
        if min(abs(t - ISING_TC) for t in grid) >= ISING_TC_CLEARANCE:
            return argv + ["--t-min", _fmt(lo), "--t-max", _fmt(hi)]


def _tfim_sweep(rng):
    # 11 couplings instead of the CLI's 41 keep one repetition near 2 s, so a
    # run holds enough repetitions for a steady median; every r = 1..50 stays.
    argv = ["tfim", "sweep", "--lambda-count", "11"]
    if rng is None:
        return argv
    lam_min = rng.uniform(0.0, 0.02)
    lam_max = 2.0 + rng.uniform(-0.02, 0.02)
    return argv + ["--lambda-min", _fmt(lam_min), "--lambda-max", _fmt(lam_max)]


def _tfim_far(rng):
    # The far-pair driver takes its ring sizes and coupling grid from the
    # library, not from the command line, so every seed runs the same inputs.
    return ["tfim", "scaling", "--kind", "far"]


def _oracle(rng):
    argv = ["oracle", "compare", "--n", "10"]
    if rng is None:
        return argv + ["--lambda", "1.0", "--t", "0.5"]
    lam = 1.0 + rng.uniform(-0.05, 0.05)
    t = 0.5 + rng.uniform(-0.05, 0.05)
    return argv + ["--lambda", _fmt(lam), "--t", _fmt(t)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ising2d-sweep", "sweep", 21 * 50, _ising_sweep),
        Workload("tfim-sweep", "sweep", 11 * 50, _tfim_sweep),
        Workload("tfim-far-scaling", "scaling", 5, _tfim_far),
        Workload("oracle-gibbs", "oracle", 5, _oracle),
    )
}


def variant_of(seed: int) -> int:
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return 0 if seed == 0 else 1 + (seed - 1) % (VARIANTS - 1)

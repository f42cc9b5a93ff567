"""The host-speed reference: a fixed kernel, timed on request.

    python reference.py

Reads one line from stdin per measurement, runs the kernel and writes the
seconds it took as one line to stdout; exits at end of input.  The kernel
mixes what the critent workloads do: interpreted Python loops, small numpy
array operations, LAPACK factorizations of a few sizes, complex array
arithmetic with FFTs, and cosine sums over a momentum grid.  It never changes,
so its time measures only how fast the host runs at that moment.  The runner
keeps one of these processes alive for a whole run and times the kernel
between workload repetitions.
"""

import sys
import time

import numpy as np

RNG = np.random.default_rng(12345)
SMALL = RNG.standard_normal((40, 40))
LARGE = RNG.standard_normal((192, 192))
LARGE = LARGE + LARGE.T
GRID = np.linspace(0.0, np.pi, 2048)
THETA = 2.0 * np.pi * np.arange(8192) / 8192
MOMENTA = np.linspace(0.01, np.pi, 1000)
ORDERS = np.arange(-30, 31)


def kernel() -> float:
    total = 0.0
    for i in range(300_000):  # interpreter
        total += (i * i) % 7
    for k in range(1000):  # small array operations
        total += float(np.cos(k * GRID).sum())
    for _ in range(800):  # small LU factorizations
        total += np.linalg.slogdet(SMALL)[1]
    for _ in range(14):  # dense symmetric eigensolves
        total += float(np.linalg.eigvalsh(LARGE)[-1])
    for k in range(55):  # complex samples of a symbol and their inverse FFT
        z = (0.5 + k / 110) - np.exp(-1j * THETA)
        total += float(np.fft.ifft(z / np.abs(z))[3].real)
    weights = np.cos(MOMENTA)
    for _ in range(14):  # Fourier sums over a momentum grid
        total += float((np.cos(np.outer(ORDERS, MOMENTA)) @ weights).sum())
        total += float((np.sin(np.outer(ORDERS, MOMENTA)) @ weights).sum())
    return total


def main() -> int:
    kernel()  # warm-up: first calls load LAPACK and fill caches
    for _ in sys.stdin:
        start = time.perf_counter()
        kernel()
        print(f"{time.perf_counter() - start:.9f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

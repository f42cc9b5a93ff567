"""Exception types shared across the package.

The CLI maps these onto exit codes: validation/domain errors -> 1,
numerical non-convergence -> 2.
"""


class ValidationError(ValueError):
    """An input violated a declared invariant (names the invariant)."""

    def __init__(self, invariant, message):
        super().__init__(f"{invariant}: {message}")


class ConvergenceError(RuntimeError):
    """A closed-form coefficient window failed its health check, or the
    tests' reference quadrature (numerics.fourier_window) did not converge."""


class ModelConsistencyError(ValueError):
    """Correlation values produced a non-physical density matrix."""

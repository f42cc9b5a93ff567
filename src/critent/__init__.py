"""Two-site mutual information in exactly solvable spin systems."""

from . import analysis, density, dimer, exact, ising2d, numerics, tfim
from .density import (
    DensityMatrix,
    make_density_matrix,
    mutual_information,
    partial_trace,
    relative_entropy,
    tensor_product,
    von_neumann_entropy,
)
from .errors import (
    ConvergenceError,
    ModelConsistencyError,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "density",
    "dimer",
    "exact",
    "ising2d",
    "numerics",
    "tfim",
    "DensityMatrix",
    "make_density_matrix",
    "mutual_information",
    "partial_trace",
    "relative_entropy",
    "tensor_product",
    "von_neumann_entropy",
    "ConvergenceError",
    "ModelConsistencyError",
    "ValidationError",
    "__version__",
]

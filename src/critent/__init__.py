"""Two-site mutual information in exactly solvable spin systems."""

__version__ = "0.1.0"

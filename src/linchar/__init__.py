"""Exact characteristic quasi-polynomials of extended Linial arrangements
over irreducible root systems, with certified root-line localization."""

# The one re-export: perfbench's tracer looks char_quasi up on the package.
from .linial import char_quasi

__version__ = "0.1.0"

__all__ = ["char_quasi"]

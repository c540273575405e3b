"""Exact bigraded homological algebra over prime fields.

Semifree dg-modules over small symmetric/exterior algebras, the Koszul
duality functors between them, homological dualities with independent
oracles, and block-algebra calculators for the rank-one case, all over
GF(p) with machine-checked identities.
"""

from .algebra import AlgebraSpec, make_algebra
from .bigraded import SHIFT_CONVENTION, BigradedDims, Window
from .dgmodule import (
    DgMap,
    FiniteDgModule,
    SemifreeDgModule,
    cohomology,
    cone,
    free_module,
    is_quasi_iso,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "BigradedDims",
    "DgMap",
    "FiniteDgModule",
    "SemifreeDgModule",
    "SHIFT_CONVENTION",
    "Window",
    "cohomology",
    "cone",
    "free_module",
    "is_quasi_iso",
    "make_algebra",
    "__version__",
]

"""Exact torsion polynomials of maps to Z, with certified root bounds.

The package computes, in exact rational arithmetic, the torsion polynomial
attached to a finite group presentation together with an epimorphism onto
Z (Fox calculus, then the GCD of maximal minors of the specialized
Jacobian over Q[t, t^-1]), and certifies that all of its nonzero roots lie
in the annulus 1/c <= |t| <= c for c = 1 + m! * k^m, where k is the total
l1 norm of the Fox Jacobian.  Companion modules cover torus bundles,
their power covers, and the census of hyperbolic SL2(Z) monodromies
compatible with a given bound.

When the input presents the fundamental group of a compact orientable
3-manifold, the computed polynomial is the torsion polynomial of the
corresponding infinite cyclic cover; for other inputs the pipeline is
still well-defined but carries no such topological meaning.
"""

from .freegroup import Word
from .laurent import LaurentPoly, cauchy_root_radius, complex_roots, determinant, gcd, normalize, rank
from .presentation import (
    FinitePresentation,
    ParseError,
    PresentationError,
    complexity_k,
    enumerate_epimorphisms,
    exponent_sum_matrix,
    parse_presentation,
    serialize_presentation,
    validate_epimorphism,
)
from .torsion import (
    AnnulusReport,
    InvalidEpimorphism,
    SizeBudgetExceeded,
    SpecializedJacobian,
    annulus_certify,
    scan,
    specialize_jacobian,
    torsion_polynomial,
)

__all__ = [
    "AnnulusReport",
    "FinitePresentation",
    "InvalidEpimorphism",
    "LaurentPoly",
    "ParseError",
    "PresentationError",
    "SizeBudgetExceeded",
    "SpecializedJacobian",
    "Word",
    "annulus_certify",
    "cauchy_root_radius",
    "complex_roots",
    "complexity_k",
    "determinant",
    "enumerate_epimorphisms",
    "exponent_sum_matrix",
    "gcd",
    "normalize",
    "parse_presentation",
    "rank",
    "scan",
    "serialize_presentation",
    "specialize_jacobian",
    "torsion_polynomial",
    "validate_epimorphism",
]

__version__ = "0.1.0"

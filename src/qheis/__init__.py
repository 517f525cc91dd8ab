"""Exact symbolic computation for quantum Heisenberg algebras: structure
constants and their inverse matrix, the Weyl-algebra realization at nonzero
level, imaginary Verma-type modules with graded dimensions and
truncation-scale irreducibility, and loop-module weight multiplicities.

The package namespace holds what the README's library sketch uses; every
other name is imported from its module (``qheis.cartan``, ``qheis.verma``,
...)."""

from .cartan import load_type
from .heisenberg import HeisenbergAlgebra, verify_canonical_relations
from .qscalar import qint
from .verma import PhiSignature, Truncation, build_module

__all__ = [
    "HeisenbergAlgebra", "PhiSignature", "Truncation", "build_module",
    "load_type", "qint", "verify_canonical_relations",
]

__version__ = "0.1.0"

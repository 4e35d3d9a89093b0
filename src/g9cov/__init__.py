"""Exact computations for the Shephard-Todd reflection group G9.

The package reconstructs the order-192 reflection group from its two
defining 2x2 generators over Q(zeta_8), builds all 32 irreducible
representations and the character table, computes equivariant Molien
series, and computes and verifies the modules of vector-valued
invariants (covariants) over the invariant ring C[theta, phi].
"""

from .group import GroupTable, build_group, standard_generators
from .molien import MolienResult, molien_series
from .poly import BiPoly, VecPoly, fundamental_invariants
from .reps import Representation, build_all
from .covariants import CovariantEngine, CovariantSlice, GeneratorSet
from .session import Session, get_session

__version__ = "0.1.0"

__all__ = [
    "BiPoly", "CovariantEngine", "CovariantSlice", "GeneratorSet",
    "GroupTable", "MolienResult", "Representation", "Session",
    "VecPoly", "build_all", "build_group", "fundamental_invariants",
    "get_session", "molien_series", "standard_generators",
]

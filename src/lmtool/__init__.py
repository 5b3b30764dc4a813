"""Exact invariants of rank-one ideals of the first Weyl algebra.

The library computes, in exact rational arithmetic, filtered pieces of
ideals attached to condition subspaces V of C[x] and of the hom spaces
between them, their Hilbert sequences, and the integer invariants p_D
(stable graded codimension of the endomorphism ring) and n (constant of
the quadratic Hilbert fit), together with mechanical checks of the
identities p_D = 2n and p_12 = n_1 + n_2.

The top level holds the verbs the CLI runs, their inputs and output, the
one error they stop with, and the built-in catalog; every other name is
imported from its module (lmtool.linalg, .weyl, .subspace, .graded,
.invariants, .cli).
"""

from .catalog import catalog, catalog_get, catalog_names
from .invariants import (
    DEFAULT_WEIGHTS,
    NotStabilizedError,
    Report,
    chern_number,
    dual_check,
    full_report,
    lm_invariant,
    relative_invariant,
    verify_lm_chern,
)
from .subspace import Functional, SpecError, SubspaceSpec, parse_spec
from .weyl import Weight

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_WEIGHTS",
    "Functional",
    "NotStabilizedError",
    "Report",
    "SpecError",
    "SubspaceSpec",
    "Weight",
    "catalog",
    "catalog_get",
    "catalog_names",
    "chern_number",
    "dual_check",
    "full_report",
    "lm_invariant",
    "parse_spec",
    "relative_invariant",
    "verify_lm_chern",
    "__version__",
]

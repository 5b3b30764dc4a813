"""Exact invariants of rank-one ideals of the first Weyl algebra.

The library computes, in exact rational arithmetic, filtered pieces of
ideals attached to condition subspaces V of C[x] and of the hom spaces
between them, their Hilbert sequences, and the integer invariants p_D
(stable graded codimension of the endomorphism ring) and n (constant of
the quadratic Hilbert fit), together with mechanical checks of the
identities p_D = 2n and p_12 = n_1 + n_2.
"""

from .catalog import catalog, catalog_get, catalog_names
from .graded import (
    clear_cache,
    gr_inclusion_check,
    gr_symbol_space,
    hom_dims,
    hom_piece,
    module_dims,
)
from .invariants import (
    DEFAULT_WEIGHTS,
    FitResult,
    HilbertSeq,
    NegativeChernError,
    NonPolynomialError,
    NotStabilizedError,
    Report,
    chern_number,
    dual_check,
    fit_euler,
    full_report,
    hilbert_seq,
    lm_invariant,
    relative_invariant,
    telescoping_check,
    verify_lm_chern,
    weight_independence,
)
from .linalg import Poly, RowReducer
from .subspace import Functional, SpecError, SubspaceSpec, parse_spec
from .weyl import SymbolPoly, Weight, WeylEl, dim_A, monomial_basis

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_WEIGHTS",
    "FitResult",
    "Functional",
    "HilbertSeq",
    "NegativeChernError",
    "NonPolynomialError",
    "NotStabilizedError",
    "Poly",
    "Report",
    "RowReducer",
    "SpecError",
    "SubspaceSpec",
    "SymbolPoly",
    "Weight",
    "WeylEl",
    "catalog",
    "catalog_get",
    "catalog_names",
    "chern_number",
    "clear_cache",
    "dim_A",
    "dual_check",
    "fit_euler",
    "full_report",
    "gr_inclusion_check",
    "gr_symbol_space",
    "hilbert_seq",
    "hom_dims",
    "hom_piece",
    "lm_invariant",
    "module_dims",
    "monomial_basis",
    "parse_spec",
    "relative_invariant",
    "telescoping_check",
    "verify_lm_chern",
    "weight_independence",
    "__version__",
]

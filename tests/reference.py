"""Test-side helpers built on sympy, the suite's independent oracle.

``parse_poly`` and ``parse_weyl`` turn written literals such as
"x^2 - 1/2*x + 3" or "x^2*d^2 + 4*x*d + 2" into package objects; the package
itself only prints such sums, and never imports sympy.  ``in_subspace_sympy``
tests membership in a subspace spec by evaluating its functionals in sympy.
"""

from fractions import Fraction

import sympy

from lmtool.linalg import Poly
from lmtool.subspace import Functional, SubspaceSpec
from lmtool.weyl import WeylEl

X = sympy.Symbol("x")
D = sympy.Symbol("d")


def frac(r: Fraction):
    return sympy.Rational(r.numerator, r.denominator)


def poly_to_sympy(p: Poly):
    return sum(
        (frac(c) * X ** i for i, c in p.items()),
        sympy.Integer(0),
    )


def _monomial_sum(text: str, *gens) -> dict[tuple[int, ...], Fraction]:
    """{exponents: coefficient} of a sum of rational monomials in ``gens``."""
    expr = sympy.sympify(text, locals={str(s): s for s in gens})
    return {e: Fraction(int(c.p), int(c.q)) for e, c in sympy.Poly(expr, *gens).terms()}


def parse_poly(text: str) -> Poly:
    return Poly({e: c for (e,), c in _monomial_sum(text, X).items()})


def parse_weyl(text: str) -> WeylEl:
    """A Weyl element written in normal order, every x to the left of every d
    (sympy's symbols commute, so "d*x" would read as "x*d")."""
    return WeylEl(_monomial_sum(text, X, D))


def functional_sympy(fn: Functional, expr):
    """The functional applied to a sympy expression in x."""
    val = sympy.Integer(0)
    for e, c in fn.terms:
        val += frac(c) * sympy.diff(expr, X, e).subs(X, frac(fn.point))
    return sympy.nsimplify(val)


def in_subspace_sympy(spec: SubspaceSpec, expr) -> bool:
    """Is the sympy expression a polynomial lying in the subspace?"""
    expr = sympy.cancel(expr)
    num, den = sympy.fraction(sympy.together(expr))
    if not den.is_number:
        return False
    poly = sympy.expand(expr)
    return all(functional_sympy(fn, poly) == 0 for fn in spec.functionals)

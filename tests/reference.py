"""Test-side helpers built on sympy, the suite's independent oracle.

``parse_poly`` and ``parse_weyl`` turn written literals such as
"x^2 - 1/2*x + 3" or "x^2*d^2 + 4*x*d + 2" into package objects; the package
itself only prints such sums, and never imports sympy.
"""

from fractions import Fraction

import sympy

from lmtool.linalg import Poly
from lmtool.weyl import WeylEl

X = sympy.Symbol("x")
D = sympy.Symbol("d")


def poly_to_sympy(p: Poly):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * X ** i for i, c in p.items()),
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

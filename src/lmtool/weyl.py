"""The first Weyl algebra A = C<x, d> / (dx - xd - 1) in normal order.

Elements are finite sums c * x^a * d^b (d denotes the derivative operator).
A weight w = (w1, w2) of strictly positive integers filters A by
wdeg(x^a d^b) = a*w1 + b*w2; the associated graded algebra is the commutative
polynomial ring C[x, xi] in the principal symbols of x and d.

The engine never multiplies two operators: every invariant is a dimension
read from a row-reduced system whose columns are the monomials listed by
``monomial_basis``.  So ``WeylEl`` has no product: it holds the numerators
``graded.hom_piece`` returns and reads off their principal symbols.  A
symbol is a ``WeylEl`` too, its top part: with no product, nothing tells
x^a d^b from the symbol x^a xi^b, so one class holds both.  It subclasses
``linalg.Terms``, which holds the sparse {(a, b): coeff} dict and checks no
key: the keys are the ones lmtool builds, and outside input is checked where
it enters (``Weight``, and ``subspace.parse_spec``).
"""

from __future__ import annotations

from math import gcd

from .linalg import Terms
from .record import Record


WEIGHT_LIMIT = 64  # the column count grows with max(w1, w2); larger components are refused


class Weight(Record):
    """Filtration weight (w1, w2); both components must be integers from 1
    to WEIGHT_LIMIT, and a bool is not a number."""

    __slots__ = ("w1", "w2")

    def __init__(self, w1: int, w2: int) -> None:
        if not all(isinstance(w, int) and type(w) is not bool for w in (w1, w2)):
            raise ValueError("weights must be integers")
        if w1 < 1 or w2 < 1:
            raise ValueError("weights must be strictly positive")
        if (big := max(w1, w2)) > WEIGHT_LIMIT:
            # str() refuses an int of over 4300 digits (sys.get_int_max_str_digits)
            shown = f"'{w1},{w2}'" if big.bit_length() < 1000 else f"a component of {big.bit_length()} bits"
            raise ValueError(f"weight components must be at most {WEIGHT_LIMIT}, got {shown}")
        self._set(w1=w1, w2=w2)

    @staticmethod
    def parse(text: str) -> "Weight":
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"weight must be 'w1,w2', got {text!r}")
        try:
            w1, w2 = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"weight components must be integers, got {text!r}") from None
        return Weight(w1, w2)

    def degree(self, a: int, b: int) -> int:
        return a * self.w1 + b * self.w2

    def __str__(self) -> str:
        return f"({self.w1},{self.w2})"


class WeylEl(Terms):
    """Element of the Weyl algebra in normal order: {(a, b): coeff}."""

    __slots__ = ()
    _vars = ("x", "d")

    def top_component(self, weight: Weight, k: int) -> "WeylEl":
        """Principal symbol at weighted degree k of an element of weighted
        degree at most k: its terms of degree k (zero if there are none),
        each x^a d^b read as the symbol x^a xi^b."""
        return WeylEl({key: v for key, v in self._terms.items() if weight.degree(*key) == k})


def monomial_basis(weight: Weight, k: int, lo: int = 0) -> tuple[tuple[int, int], ...]:
    """Monomials (a, b) of weighted degree lo..k, sorted by (degree, b).

    With this order the basis of A_j is a prefix of the basis of A_k for
    every j <= k, which the graded-piece solver relies on, and the band of
    degrees lo..k is what follows the basis of A_(lo-1).  They are listed
    degree by degree: a*w1 = deg - b*w2 asks b*w2 = deg mod w1, so the
    d-orders b of one degree run from the least such b in steps of
    w1/gcd(w1, w2), and a degree that gcd does not divide has none.
    """
    w1, w2 = weight.w1, weight.w2
    g = gcd(w1, w2)
    step = w1 // g
    inverse = pow(w2 // g, -1, step)  # of w2/g mod step
    out: list[tuple[int, int]] = []
    for deg in range(max(lo, 0), k + 1):
        if deg % g == 0:
            first = deg // g * inverse % step
            out += [((deg - b * w2) // w1, b) for b in range(first, deg // w2 + 1, step)]
    return tuple(out)

"""The first Weyl algebra A = C<x, d> / (dx - xd - 1) in normal order.

Elements are finite sums c * x^a * d^b (d denotes the derivative operator).
Products are renormalized with d^b x^a = sum_i C(b,i) * a!/(a-i)! * x^(a-i) d^(b-i).

A weight w = (w1, w2) of strictly positive integers filters A by
wdeg(x^a d^b) = a*w1 + b*w2; the associated graded algebra is the commutative
polynomial ring in the principal symbols of x and d, represented here by
:class:`SymbolPoly`.

Both element classes subclass ``linalg.Terms``, which holds the sparse
{(a, b): coeff} dict and does all but the product; each class adds its
product (normal ordering for ``WeylEl``, the commutative one for
``SymbolPoly``) and the queries of its own algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm

from .linalg import Poly, Terms


@dataclass(frozen=True)
class Weight:
    """Filtration weight (w1, w2); both components must be positive integers."""

    w1: int
    w2: int

    def __post_init__(self) -> None:
        if not (isinstance(self.w1, int) and isinstance(self.w2, int)):
            raise ValueError("weights must be integers")
        if self.w1 < 1 or self.w2 < 1:
            raise ValueError("weights must be strictly positive")

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

    def as_tuple(self) -> tuple[int, int]:
        return (self.w1, self.w2)

    def __str__(self) -> str:
        return f"({self.w1},{self.w2})"


class WeylEl(Terms):
    """Element of the Weyl algebra in normal order: {(a, b): coeff}."""

    __slots__ = ()
    _vars = ("x", "d")
    _one = (0, 0)

    def _product(self, other: "WeylEl"):
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                c = c1 * c2
                # d^b1 x^a2 = sum_i C(b1,i) a2!/(a2-i)! x^(a2-i) d^(b1-i)
                for i in range(min(b1, a2) + 1):
                    yield (a1 + a2 - i, b1 + b2 - i), c * comb(b1, i) * perm(a2, i)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "WeylEl":
        return WeylEl()

    @staticmethod
    def x(power: int = 1) -> "WeylEl":
        return WeylEl({(power, 0): 1})

    @staticmethod
    def d(power: int = 1) -> "WeylEl":
        return WeylEl({(0, power): 1})

    @staticmethod
    def from_poly(p: Poly) -> "WeylEl":
        return WeylEl({(e, 0): v for e, v in p.items()})

    # -- inspection -----------------------------------------------------------

    def x_part(self) -> Poly:
        """The purely polynomial part (all terms with d-order 0)."""
        return Poly({a: v for (a, b), v in self._terms.items() if b == 0})

    def max_d_order(self) -> int:
        return max((b for (_, b) in self._terms), default=0)

    # -- algebra: a Poly factor is read as an element of A ----------------------

    def __mul__(self, other: "WeylEl | Poly | Fraction | int") -> "WeylEl":
        return super().__mul__(WeylEl.from_poly(other) if isinstance(other, Poly) else other)

    def __rmul__(self, other: "Poly | Fraction | int") -> "WeylEl":
        if isinstance(other, Poly):
            return WeylEl.from_poly(other) * self
        return super().__rmul__(other)

    # -- action on functions ---------------------------------------------------

    def apply_poly(self, f: Poly) -> Poly:
        """Apply to a polynomial: (x^a d^b) . f = x^a * f^(b)."""
        derivs = [f]
        for _ in range(self.max_d_order()):
            derivs.append(derivs[-1].derivative())
        out = Poly()
        for (a, b), c in self._terms.items():
            out = out + (derivs[b] * c).shift_x(a)
        return out

    # -- filtration -------------------------------------------------------------

    def wdegree(self, weight: Weight) -> int | None:
        """Weighted degree, or None (minus infinity) for zero."""
        if not self._terms:
            return None
        return max(weight.degree(a, b) for (a, b) in self._terms)

    def top_component(self, weight: Weight, k: int) -> "SymbolPoly":
        """Principal symbol at weighted degree k (terms of lower degree drop).

        Raises ValueError if the element has weighted degree above k.
        """
        deg = self.wdegree(weight)
        if deg is not None and deg > k:
            raise ValueError(f"element has weighted degree {deg} > {k}")
        return SymbolPoly({key: v for key, v in self._terms.items() if weight.degree(*key) == k})


class SymbolPoly(Terms):
    """Polynomial in the commuting symbols of x and d (the associated graded
    algebra of A is C[x, y]); used for principal-symbol computations."""

    __slots__ = ()
    _vars = ("x", "y")
    _one = (0, 0)

    def _product(self, other: "SymbolPoly"):
        return (((a1 + a2, b1 + b2), c1 * c2)
                for (a1, b1), c1 in self._terms.items() for (a2, b2), c2 in other._terms.items())

    def is_homogeneous(self, weight: Weight) -> bool:
        degs = {weight.degree(a, b) for (a, b) in self._terms}
        return len(degs) <= 1

    def min_x_exponent(self) -> int | None:
        """Smallest x-exponent across terms (None for zero); the symbol is
        divisible by x^m exactly when this is >= m."""
        return min((a for (a, _) in self._terms), default=None)

    def divisible_by_x(self, m: int) -> bool:
        if self.is_zero:
            return True
        return self.min_x_exponent() >= m


def dim_A(weight: Weight, k: int) -> int:
    """Dimension of the filtered piece A_k(w): lattice points with
    a*w1 + b*w2 <= k.  For weight (1,1) this is (k+1)(k+2)/2."""
    if k < 0:
        return 0
    return sum((k - b * weight.w2) // weight.w1 + 1 for b in range(k // weight.w2 + 1))


def monomial_basis(weight: Weight, k: int) -> tuple[tuple[int, int], ...]:
    """Monomials (a, b) of weighted degree <= k, sorted by (degree, b).

    With this order the basis of A_j is a prefix of the basis of A_k for
    every j <= k, which the graded-piece solver relies on.
    """
    if k < 0:
        return ()
    out = []
    for b in range(k // weight.w2 + 1):
        rem = k - b * weight.w2
        for a in range(rem // weight.w1 + 1):
            out.append((weight.degree(a, b), b, a))
    out.sort()
    return tuple((a, b) for (_, b, a) in out)

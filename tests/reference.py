"""Test-side helpers built on sympy, the suite's independent oracle.

``parse_poly`` and ``parse_weyl`` turn written literals such as
"x^2 - 1/2*x + 3" or "x^2*d^2 + 4*x*d + 2" into package objects; the package
itself only prints such sums, and never imports sympy.  ``wdegree`` is the
weighted degree of a Weyl element, and ``dim_A`` the lattice count of
dim A_k(w), which the package reads from its column table instead.
``in_subspace_sympy`` tests membership in a subspace spec by evaluating its
functionals in sympy, and ``low_basis_sympy`` is a basis of the part of a
spec below its conductor's degree, from sympy's nullspace.
``gap_hom_dims`` is a closed form for the hom spaces between gap sets at 0
that uses the standard library alone, ``wilson_partition`` the partition of
a gap set, whose size is its n, and ``top_gaps`` the gap set that a spec
degenerates to when its points collide at 0.  ``int_row`` scales a
row over Q to the integer row ``RowReducer`` takes.  ``StepwiseReducer`` is fraction-free
elimination that keeps every row primitive after every step, which
``lmtool.linalg.RowReducer`` must match row for row.  ``recentred_row``
rewrites a row read on (x - c)^i d^b as a row read on (x - c0)^a d^b,
with binomials taken as products of Fractions.  ``jet_rows`` reads the pole
and value rows of a Laurent jet from each column's own Laurent
coefficients, which the walks ``graded._Rows._term_rows`` and
``graded._Rows._sum_rows`` must match row for row, each row of a one-term
jet up to its scale.
"""

from fractions import Fraction
from math import gcd, lcm, perm

import sympy

from lmtool.linalg import Poly
from lmtool.subspace import Functional, SubspaceSpec
from lmtool.weyl import Weight, WeylEl

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


def wdegree(u: WeylEl, weight: Weight) -> int | None:
    """Weighted degree of u, or None (minus infinity) for zero."""
    return max((weight.degree(a, b) for (a, b), _ in u.items()), default=None)


def dim_A(weight: Weight, k: int) -> int:
    """Dimension of the filtered piece A_k(w): lattice points with
    a*w1 + b*w2 <= k.  For weight (1,1) this is (k+1)(k+2)/2."""
    return sum((k - b * weight.w2) // weight.w1 + 1 for b in range(k // weight.w2 + 1))


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


def low_basis_sympy(spec: SubspaceSpec) -> tuple:
    """A basis of {f in V : deg f < deg g}, g the conductor of V, as sympy
    expressions in x: the nullspace of the functionals on 1, x, ..., x^(deg g - 1).
    With g*C[x] it spans V."""
    deg = spec.conductor.degree()
    if not spec.functionals or not deg:
        return ()
    mat = sympy.Matrix([[functional_sympy(fn, X ** i) for i in range(deg)] for fn in spec.functionals])
    return tuple(sympy.expand(sum(y * X ** i for i, y in enumerate(vec))) for vec in mat.nullspace())


def gap_hom_dims(gaps1, gaps2, w1: int, w2: int, kmax: int, kmin: int = -1) -> list[int]:
    """dim Hom_k(V1, V2) for k = kmin..kmax, V_i = span{x^s : s not in gaps_i}.

    Let m = max(gaps1) + 1 (0 if gaps1 is empty), so the conductor of V1 is
    x^m, and let top = k + w1*m.  Hom_k is {u o x^-m : wdeg u <= top,
    u.(x^(s-m)) in V2 for s in S1}, S1 the non-gaps of V1.  With
    n = s - m and n^(b) the falling factorial, x^a d^b x^n = n^(b) x^(n+e),
    e = a - b.  So the columns of one e act on x^n as phi(n) x^(n+e), and
    phi runs over the span of n^(b), b0 <= b <= b1, with b0 = max(0, -e)
    (a >= 0) and b1 = floor((top - w1*e) / (w1 + w2)) (w1*a + w2*b <= top).
    That span is n^(b0) times every polynomial of degree <= b1 - b0, and
    the coefficients of u map onto it one to one.
    V2 is spanned by monomials, so the conditions split by e: phi(z) = 0
    at each z = s - m, s in S1, with z + e a gap of V2 or negative.  The
    roots 0..b0-1 of n^(b0) meet that for free; the other nodes are
    distinct points, so each takes one dimension off, down to zero:
    dim Hom_k = sum over e of max(0, b1 - b0 + 1 - |nodes|).
    """
    m = max(gaps1, default=-1) + 1
    dims = []
    for k in range(kmin, kmax + 1):
        top = k + w1 * m
        dim = 0
        for e in range(-(top // w2), top // w1 + 1) if top >= 0 else ():
            b0, b1 = max(0, -e), (top - w1 * e) // (w1 + w2)
            # s - m + e is negative for s < m - e, or a gap j for s = j + m - e
            sources = [*range(m - e), *(j + m - e for j in gaps2)]
            nodes = {s - m for s in sources if s >= 0 and s not in gaps1} - set(range(b0))
            dim += max(0, b1 - b0 + 1 - len(nodes))
        dims.append(dim)
    return dims


def wilson_partition(gaps) -> list[int]:
    """lambda_i = gamma_(r+1-i) - (r - i) for the gaps gamma_1 < ... < gamma_r,
    largest part first (Wilson, Invent. Math. 1998); |lambda| is the n of
    the gap set."""
    r = len(gaps)
    return [g - (r - 1 - i) for i, g in enumerate(sorted(gaps, reverse=True))]


def top_gaps(spec: SubspaceSpec) -> tuple[int, ...]:
    """The gaps of s(V), the span of the top-degree monomials of V: the
    degrees below deg g that no element of V has.  Read the functionals on
    1, x, ..., x^(deg g - 1) and eliminate in column order: an element of V
    of degree j < deg g exists exactly when column j is free, so the gaps
    are the pivot columns.  As x -> lambda*x, lambda -> 0, V tends to s(V),
    and no filtered hom dimension can drop at the limit."""
    deg = spec.conductor.degree()
    rows = [[sum((v * perm(i, o) * fn.point ** (i - o) for o, v in fn.terms if o <= i), Fraction(0))
             for i in range(deg)] for fn in spec.functionals]
    gaps = []
    for j in range(deg):
        at = next((r for r in rows if r[j]), None)
        if at is not None:
            gaps.append(j)
            rows = [[y - r[j] / at[j] * z for y, z in zip(r, at)] for r in rows if r is not at]
    return tuple(gaps)


def int_row(entries: dict) -> dict[int, int]:
    """A row ``{column: int or Fraction}`` scaled by the lcm of its
    denominators, zeros dropped: the ``{column: int}`` that
    ``RowReducer.add_row`` takes, with the same row space and pivot."""
    scale = lcm(*(Fraction(v).denominator for v in entries.values()))
    return {t: int(v * scale) for t, v in entries.items() if v}


class StepwiseReducer:
    """Fraction-free Gaussian elimination, pivot the first nonzero column,
    that divides a row by its content after every elimination step.
    ``rows`` and ``pivot_of`` mirror ``RowReducer._rows`` and ``_pivot_of``."""

    def __init__(self):
        self.rows: list[dict[int, int]] = []
        self.pivot_of: dict[int, int] = {}

    @staticmethod
    def _step(row: dict, prow: dict, j: int) -> dict:
        """Clear column j of row with prow, then divide by the content."""
        a, b = row[j], prow[j]
        g = gcd(a, b)
        new = {t: v * (b // g) for t, v in row.items()}
        for t, v in prow.items():
            new[t] = new.get(t, 0) - v * (a // g)
        content = gcd(*new.values()) or 1
        return {t: v // content for t, v in new.items() if v}

    def add_row(self, entries: dict[int, int]) -> bool:
        row = {t: v for t, v in entries.items() if v}
        while row and min(row) in self.pivot_of:
            row = self._step(row, self.rows[self.pivot_of[min(row)]], min(row))
        if row:
            lead = min(row)
            content = gcd(*row.values()) if row[lead] > 0 else -gcd(*row.values())
            self.pivot_of[lead] = len(self.rows)
            self.rows.append({t: v // content for t, v in row.items()})
        return bool(row)

    def rref(self) -> tuple[tuple[int, ...], tuple[dict[int, Fraction], ...]]:
        pivots = sorted(self.pivot_of)
        rows = [self.rows[self.pivot_of[c]] for c in pivots]
        for i in reversed(range(len(pivots))):
            rows[:i] = [self._step(r, rows[i], pivots[i]) if pivots[i] in r else r for r in rows[:i]]
        return tuple(pivots), tuple({t: Fraction(v, r[c]) for t, v in r.items()} for c, r in zip(pivots, rows))


def binomial(a: int, i: int) -> Fraction:
    """C(a, i) as the product of (a - j)/(j + 1) for j < i."""
    out = Fraction(1)
    for j in range(i):
        out *= Fraction(a - j, j + 1)
    return out


def recentred_row(row: dict[tuple[int, int], int], delta: Fraction, w1: int, w2: int,
                  top: int) -> dict[tuple[int, int], Fraction]:
    """A row given by its values r(i, b) on the operators (x - c)^i d^b,
    read on every (x - c0)^a d^b with w1*a + w2*b <= top, where
    c - c0 = delta: (x - c0)^a = sum_i C(a, i) delta^(a-i) (x - c)^i, so
    the value there is sum_i C(a, i) delta^(a-i) r(i, b).  Nonzero values
    only, keyed (a, b)."""
    out = {}
    for b in range(top // w2 + 1):
        for a in range((top - w2 * b) // w1 + 1):
            value = sum((binomial(a, i) * delta ** (a - i) * row.get((i, b), 0) for i in range(a + 1)),
                        Fraction(0))
            if value:
                out[a, b] = value
    return out


def jet_rows(jet: dict[int, int], reads: list[list[tuple[int, int]]],
             columns: list[tuple[int, int]]) -> list[dict[int, Fraction]]:
    """The rows of F = sum_e y t^e (``jet`` as {e: y}, t = x - c) on the
    operators t^a d^b of ``columns``, keyed by their index there, from the
    Laurent coefficients of each t^a d^b F: d^b t^e is the product of
    (e - j) for j < b times t^(e-b).  First the row of t^-i for i = 1, 2, ...,
    then the row sum_o cf * [t^o] of each functional in ``reads``, given as
    its pairs (o, cf); empty rows are left out."""
    laurent = []  # laurent[j] is {n: coefficient of t^n in column j applied to F}
    for a, b in columns:
        coeffs: dict[int, Fraction] = {}
        for e, y in jet.items():
            value = Fraction(y)
            for j in range(b):
                value *= e - j
            if value:
                coeffs[e - b + a] = coeffs.get(e - b + a, Fraction(0)) + value
        laurent.append(coeffs)
    depth = max((-n for coeffs in laurent for n in coeffs), default=0)
    poles = [{j: coeffs[-i] for j, coeffs in enumerate(laurent) if coeffs.get(-i)} for i in range(1, depth + 1)]
    values = [{j: v for j, coeffs in enumerate(laurent) if (v := sum(cf * coeffs.get(o, 0) for o, cf in terms))}
              for terms in reads]
    return [row for row in poles + values if row]

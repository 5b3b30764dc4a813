"""Exact linear algebra over Q: sparse sums of terms, polynomials and row
reduction.

``Terms`` is the one container for finite sums of monomials with rational
coefficients.  It owns normalisation, equality, hashing and the text form;
it neither adds nor scales.  ``Poly`` here and ``weyl.WeylEl`` subclass
it and add their variables and queries.  The one arithmetic is ``Poly``'s
product of two polynomials, and its one use is the conductor: the product
of x - c over the points c, each factor taken d_c + 1 times.

Values are ``fractions.Fraction`` or ``int``; there are no floats anywhere,
so every result is exact and reproducible bit-for-bit.  ``RowReducer`` does
fraction-free Gaussian elimination on integer rows ``{column: int}`` with
the pivot taken as the first nonzero entry in column order, which makes the
reduced echelon form -- and hence nullspace bases -- canonical for a given
row space and column order.  ``add_row`` owns the row it is offered and
reduces it in place.  The ``rref`` rows and ``nullspace`` vectors come out
as ``{column: Fraction}`` of their nonzero entries.  Each elimination step
touches only the nonzero entries: the rows the towers build are mostly
zeros.  The steps and the pivots are those of dense elimination, so the
echelon rows and the canonical form do not change with the storage.

A step only scales the row and subtracts (``_eliminate``).  The row's
content, the gcd of its entries, is divided out once per row and only when
the row is final: when ``add_row`` keeps it as a pivot row, and when
``rref`` is about to clear its pivot from the rows above it.  A row that
reduces to zero is never divided at all.  Each step puts a positive factor
on the row, so the row at either place is a positive multiple of the row
that a division after every step would give, and dividing by the content
(signed so the leading entry is positive) gives that same primitive row:
the stored rows, the pivots and the RREF are those of keeping every row
primitive throughout (Bareiss, Math. Comp. 1968, on integer-preserving
elimination).
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def rat_from_str(text: str | int) -> Fraction:
    """Parse a rational written as ``p`` or ``p/q``, integer literals with
    optional surrounding whitespace; a bool is not a number.  Decimal and
    exponent forms are refused: a few bytes of "1e10000000" would build a
    ten-million-digit integer."""
    if type(text) is int:
        return Fraction(text)
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    try:
        if match:
            return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:  # over 4300 digits, or q = 0
        raise ValueError(f"not a rational: {text!r}") from exc
    raise ValueError(f"not a rational: {text!r}")


def rat_to_str(value: Fraction) -> str:
    """Format a rational as ``p`` or ``p/q`` (lowest terms, positive q)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# sparse sums of terms, and polynomials
# ---------------------------------------------------------------------------

class Terms:
    """Immutable finite sum of terms, stored sparsely as ``{key: Fraction}``
    with no zero coefficient: the container behind ``Poly`` and
    ``weyl.WeylEl``.

    A key holds one non-negative ``int`` exponent per name in ``_vars``: a
    tuple, or the bare exponent where there is one variable (``Poly``).  The
    keys are the ones lmtool builds, and nothing checks them.  A sum is built
    whole from its terms: it has no sum, difference or scalar multiple, and
    only ``Poly`` adds a product.
    """

    __slots__ = ("_terms",)
    _vars: tuple[str, ...]

    def __init__(self, terms: Mapping | Iterable[tuple[object, Fraction | int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        t: dict = {}
        for key, v in items:
            v = Fraction(v)
            if key in t:
                v += t[key]
            if v:
                t[key] = v
            elif key in t:
                del t[key]
        self._terms = t

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> list:
        return sorted(self._terms.items())

    def __getitem__(self, key) -> Fraction:
        return self._terms.get(key, Fraction(0))

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __str__(self) -> str:
        terms = {k if isinstance(k, tuple) else (k,): v for k, v in self._terms.items()}
        return format_monomial_sum(terms, self._vars)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Poly(Terms):
    """Univariate polynomial over Q, stored sparsely as exponent -> coefficient.

    Immutable.  The degree of the zero polynomial is reported as ``None``,
    the "minus infinity" marker.
    """

    __slots__ = ()
    _vars = ("x",)

    # -- degree -------------------------------------------------------------

    def degree(self) -> int | None:
        """Degree, or None (minus infinity) for the zero polynomial."""
        return max(self._terms) if self._terms else None

    # -- product -------------------------------------------------------------

    def __mul__(self, other):
        if type(other) is not Poly:
            return NotImplemented
        return Poly((e1 + e2, v1 * v2) for e1, v1 in self._terms.items() for e2, v2 in other._terms.items())


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Exact quotient and remainder by a nonzero ``den``."""
    q: dict[int, Fraction] = {}
    r = dict(num._terms)
    dd = den.degree()
    dlc = den[dd]
    den_items = list(den._terms.items())
    while r:
        e = max(r)
        if e < dd:
            break
        f = r[e] / dlc
        k = e - dd
        q[k] = f
        for de, dv in den_items:
            t = de + k
            w = r.get(t, Fraction(0)) - f * dv
            if w:
                r[t] = w
            elif t in r:
                del r[t]
    return Poly(q), Poly(r)


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------

def _eliminate(row: dict[int, int], prow: dict[int, int], j: int) -> None:
    """Clear column j of ``row`` with ``prow`` (whose entry there is
    positive), in place and over prow's support only: row becomes
    (b*row - a*prow)/g, with a and b the two entries at j and g = gcd(a, b).
    The factor b/g on row is positive, and the content is left in: it is
    divided out once the row is final (see the module docstring)."""
    a, b = row[j], prow[j]
    g = gcd(a, b)
    fa, fb = b // g, a // g  # fa > 0 keeps the sign of row's leading entry
    if fa != 1:
        for t in row:
            row[t] *= fa
    for t, v in prow.items():
        w = row.get(t, 0) - v * fb
        if w:
            row[t] = w
        else:
            del row[t]


def _primitive(row: dict[int, int], lead: int) -> dict[int, int]:
    """``row`` divided by its content, signed so its entry at ``lead`` is positive."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return {t: v // g for t, v in row.items()} if g != 1 else row


class RowReducer:
    """Incremental Gaussian elimination over Q with canonical output.

    A row is a ``dict[int, int]``, ``{column: value}`` with columns in
    0..ncols-1 (a row over Q is offered scaled to integers, which changes
    neither its row space nor its pivot); its zero entries are dropped.  The
    reducer owns the dict: it is reduced in place and may be kept as a pivot
    row, so the caller hands over a fresh one and does not reuse it.

    A stored row is primitive with a positive leading entry; the module
    docstring says where its content is divided out.

    A reducer has no finalized state: rows may be added at any time, and
    ``rref`` and ``nullspace`` reduce the current rows afresh on each call.
    They return ``{column: Fraction}`` of the nonzero entries.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: list[dict[int, int]] = []  # echelon rows, leading entry positive
        self._pivot_of: dict[int, int] = {}  # pivot column -> index into _rows

    # -- building -----------------------------------------------------------

    def add_row(self, entries: dict[int, int]) -> bool:
        """Reduce a row, a ``dict[int, int]`` of column to value, against
        the current basis; returns True if rank grew."""
        row = entries if 0 not in entries.values() else {t: v for t, v in entries.items() if v}
        while row:
            j = min(row)
            pivot_idx = self._pivot_of.get(j)
            if pivot_idx is None:
                self._pivot_of[j] = len(self._rows)
                self._rows.append(_primitive(row, j))
                return True
            _eliminate(row, self._rows[pivot_idx], j)
        return False

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[dict[int, int]]:
        """The echelon rows in the order they were kept, each primitive
        with a positive leading entry; read them, do not change them."""
        return self._rows

    def pivot_cols(self) -> list[int]:
        return sorted(self._pivot_of)

    # -- canonical form ------------------------------------------------------

    def rref(self) -> tuple[tuple[int, ...], tuple[dict[int, Fraction], ...]]:
        """Reduced row echelon form: (pivot columns, rows with unit pivots),
        each row ``{column: Fraction}`` of its nonzero entries."""
        pivots = sorted(self._pivot_of)
        rows = [dict(self._rows[self._pivot_of[c]]) for c in pivots]
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            rows[i] = prow = _primitive(rows[i], pc)  # rows[i] is final: no later pivot is left in it
            for t in range(i):
                if pc in rows[t]:
                    _eliminate(rows[t], prow, pc)
        return tuple(pivots), tuple(
            {s: Fraction(v, row[pc]) for s, v in row.items()} for pc, row in zip(pivots, rows))

    def nullspace(self, ncols_prefix: int | None = None) -> tuple[dict[int, Fraction], ...]:
        """Canonical nullspace basis, one vector ``{column: Fraction}`` per
        free column in increasing column order; restricting to a column
        prefix solves the truncated system because each vector ends at its
        free column.  The prefix is at most ``ncols``.
        """
        n = self.ncols if ncols_prefix is None else ncols_prefix
        pivots, rows = self.rref()
        pivot_set = set(pivots)
        basis = []
        for j in range(n):
            if j in pivot_set:
                continue
            vec: dict[int, Fraction] = {}
            for pc, row in zip(pivots, rows):
                if pc < j and j in row:
                    vec[pc] = -row[j]
            vec[j] = Fraction(1)
            basis.append(vec)
        return tuple(basis)


# ---------------------------------------------------------------------------
# shared text form for sums of monomials
# ---------------------------------------------------------------------------

def format_monomial_sum(
    terms: Mapping[tuple[int, ...], Fraction],
    variables: Sequence[str],
) -> str:
    """Format {(a, b, ...): c} as "c*x^a*d^b + ..." (0 for the empty sum).

    Terms are ordered by decreasing total degree, then decreasing exponent of
    the first variable, matching how such operators are usually written.
    """
    if not terms:
        return "0"
    keys = sorted(terms, key=lambda k: (-sum(k), tuple(-e for e in k)))
    parts: list[str] = []
    for idx, key in enumerate(keys):
        coeff = terms[key]
        factors = []
        for var, e in zip(variables, key):
            if e == 1:
                factors.append(var)
            elif e > 1:
                factors.append(f"{var}^{e}")
        mag = abs(coeff)
        if not factors:
            body = rat_to_str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = rat_to_str(mag) + "*" + "*".join(factors)
        if idx == 0:
            parts.append(("-" if coeff < 0 else "") + body)
        else:
            parts.append((" - " if coeff < 0 else " + ") + body)
    return "".join(parts)

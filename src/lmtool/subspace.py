"""Subspaces of C[x] cut out by finitely many single-point linear conditions.

A subspace spec describes V = {f in C[x] : l_1(f) = ... = l_m(f) = 0} where
each functional has the shape l(f) = sum_e coeff_e * f^(e)(c) for a single
rational point c.  Such V contain g*C[x] for the conductor polynomial
g = prod_j (x - c_j)^(d_j + 1) (d_j the maximal derivative order used at c_j).

Near a point c with m = d + 1 (d the top order there), the functionals at c
read only the Taylor digits 0..m-1 of f in t = x - c, and the image of V in
C[t]/t^m is their kernel K_c, of dimension m - r for r functionals at c.
``local_kernel[c]`` is a basis of K_c, written as digits 0..m-1.  By the
Chinese remainder theorem C[x]/g is the sum of the C[t]/t^m over the points,
so V is exactly the f whose digits at every c lie in K_c, and the graded
solvers read a source V through its conductor and these kernels alone.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import factorial, gcd, lcm

from .linalg import Poly, RowReducer, rat_from_str
from .record import Record


class SpecError(ValueError):
    """Raised for malformed subspace spec documents."""


CONDUCTOR_DEGREE_LIMIT = 64  # tower columns grow with deg(g); larger specs are refused
# digits of a point's or a coefficient's numerator or denominator: row
# reduction slows with their size long before Python's integer limit
RATIONAL_DIGIT_LIMIT = 100


def _natural(value: object, what: str) -> int:
    """A non-negative integer, through ``operator.index``: a float is
    rejected, not truncated, and a bool is not a number."""
    try:
        n = -1 if type(value) is bool else operator.index(value)
    except TypeError:
        n = -1
    if n < 0:
        raise SpecError(f"{what} must be a non-negative integer, got {value!r}")
    return n


def _rational(value: object, what: str) -> Fraction:
    """An int or a Fraction as a Fraction, of at most RATIONAL_DIGIT_LIMIT
    digits above and below; a float is rejected, not rounded to its binary
    value, and a bool is not a number."""
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        raise SpecError(f"{what} must be an int or a Fraction, got {value!r}")
    value = Fraction(value)
    if max(abs(value.numerator), value.denominator) >= 10 ** RATIONAL_DIGIT_LIMIT:
        raise SpecError(f"{what} has a numerator or denominator above the limit of "
                        f"{RATIONAL_DIGIT_LIMIT} digits")
    return value


class Functional(Record):
    """Single-point functional f -> sum_e coeff_e * f^(e)(point).

    Functionals supported at several points are not representable (and the
    input format cannot express them); at least one term must be nonzero.
    ``terms`` holds the (derivative order, coefficient) pairs, sorted by
    order, with like orders summed and no zero coefficient.
    """

    __slots__ = ("point", "terms")

    def __init__(self, point: Fraction, terms: tuple[tuple[int, Fraction], ...]) -> None:
        seen: dict[int, Fraction] = {}
        for order, coeff in terms:
            order = _natural(order, "derivative order")
            coeff = _rational(coeff, "coefficient")
            if coeff:  # a sum of like orders is held to the limit too
                seen[order] = _rational(seen.get(order, Fraction(0)) + coeff, "coefficient")
        cleaned = tuple(sorted((o, c) for o, c in seen.items() if c))
        if not cleaned:
            raise SpecError("functional has no nonzero term")
        self._set(point=_rational(point, "point"), terms=cleaned)

    @property
    def order(self) -> int:
        """Maximal derivative order appearing."""
        return self.terms[-1][0]


def _scaled(terms: tuple[tuple[int, Fraction], ...]) -> list[tuple[int, int]]:
    """The (order, coefficient) pairs scaled by the lcm of their denominators."""
    scale = lcm(*(coeff.denominator for _, coeff in terms))
    return [(o, int(coeff * scale)) for o, coeff in terms]


def _digit_row(terms: tuple[tuple[int, Fraction], ...]) -> tuple[tuple[int, int], ...]:
    """The pairs (o, coefficient * o!) scaled to integers with no common factor."""
    row = [(o, v * factorial(o)) for o, v in _scaled(terms)]
    g = gcd(*(v for _, v in row))
    return tuple((o, v // g) for o, v in row)


def _normalize_functionals(functionals: Iterable[Functional], top_orders: dict[Fraction, int]
                           ) -> tuple[tuple[Functional, ...], dict[Fraction, tuple], dict[Fraction, tuple]]:
    """Canonical form: group by point, row-reduce each point's coefficient
    matrix, each row scaled to integers (deduplicates and drops dependent
    functionals), sort points.
    Also, at each point, the local kernel, the nullspace of the same matrix,
    whose column o is f^(o)(c) = o! times Taylor digit o, and the digit rows:
    each RREF row, its order-o entry times o!, scaled to integers with no
    common factor (a gap functional f^(o)(0) reads (o, 1))."""
    by_point: dict[Fraction, list[Functional]] = {}
    for fn in functionals:
        by_point.setdefault(fn.point, []).append(fn)
    out: list[Functional] = []
    kernels: dict[Fraction, tuple] = {}
    digit_rows: dict[Fraction, tuple] = {}
    for point in sorted(by_point):
        width = top_orders[point] + 1
        red = RowReducer(width)
        for fn in by_point[point]:
            red.add_row(dict(_scaled(fn.terms)))
        try:
            fns = [Functional(point, tuple(row.items())) for row in red.rref()[1]]
        except SpecError:  # the digit limit holds for the normalised rows too
            raise SpecError(f"conditions at point {point} row-reduce to a coefficient above "
                            f"the limit of {RATIONAL_DIGIT_LIMIT} digits") from None
        out += fns
        digit_rows[point] = tuple(_digit_row(fn.terms) for fn in fns)
        kernels[point] = tuple(tuple(Fraction(vec.get(o, 0), factorial(o)) for o in range(width))
                               for vec in red.nullspace())
    return tuple(out), kernels, digit_rows


def _top_orders(functionals: Iterable[Functional]) -> dict[Fraction, int]:
    """The top derivative order at each point: the conductor has a root of
    multiplicity order + 1 there.  Normalising the functionals keeps it."""
    out: dict[Fraction, int] = {}
    for fn in functionals:
        out[fn.point] = max(out.get(fn.point, -1), fn.order)
    return out


def _check_conductor_degree(degree: int) -> None:
    if degree > CONDUCTOR_DEGREE_LIMIT:
        # str() refuses an int of over 4300 digits (sys.get_int_max_str_digits)
        shown = degree if degree.bit_length() < 1000 else f"of {degree.bit_length()} bits"
        raise SpecError(f"conductor degree {shown} is above the limit of {CONDUCTOR_DEGREE_LIMIT}")


class SubspaceSpec(Record):
    """Validated subspace description with derived conductor and local kernels.

    Equality and hashing use the normalized functionals only, so two specs
    defining the same subspace through different presentations compare equal.
    A name that is not a printable str, then a conductor of degree above
    CONDUCTOR_DEGREE_LIMIT, raises SpecError first.
    """

    __slots__ = ("name", "functionals", "gaps", "warnings", "conductor", "top_orders",
                 "local_kernel", "digit_rows", "_hash")
    # derived from the functionals, besides the four fields __init__ takes
    conductor: Poly
    top_orders: dict[Fraction, int]  # point -> top derivative order there
    # point c -> a basis of K_c, each vector the Taylor digits 0..m-1 at c
    local_kernel: dict[Fraction, tuple[tuple[Fraction, ...], ...]]
    # point c -> its normalised functionals as rows on the Taylor digits at c,
    # each the (order o, coefficient times o!) pairs scaled to integers with
    # no common factor
    digit_rows: dict[Fraction, tuple[tuple[tuple[int, int], ...], ...]]
    _hash: int  # of the normalized functionals

    def __init__(self, name: str, functionals: Sequence[Functional],
                 gaps: tuple[int, ...] | None = None, warnings: tuple[str, ...] = ()) -> None:
        if not isinstance(name, str):
            raise SpecError("spec 'name' must be a string")
        if not name.isprintable():  # reports print the name as it is
            raise SpecError(f"spec 'name' must be printable, got {name!r}")
        by_point = _top_orders(functionals)
        _check_conductor_degree(sum(o + 1 for o in by_point.values()))
        normalized, kernels, digit_rows = _normalize_functionals(functionals, by_point)
        g = Poly({0: 1})
        for point in sorted(by_point):
            for _ in range(by_point[point] + 1):
                g = g * Poly({0: -point, 1: 1})
        self._set(name=name, functionals=normalized, gaps=gaps, warnings=warnings, conductor=g,
                  top_orders=by_point, local_kernel=kernels, digit_rows=digit_rows, _hash=hash(normalized))

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def trivial() -> "SubspaceSpec":
        return SubspaceSpec(name="trivial", functionals=(), gaps=())

    @staticmethod
    def from_gaps(name: str | None, gaps: Sequence[int]) -> "SubspaceSpec":
        """Monomial spec: V = span{x^i : i not in gaps} via f^(gamma)(0) = 0,
        named gaps-1-2 (or trivial) by its gaps if name is None."""
        gap_set = sorted({_natural(g, "gap") for g in gaps})
        _check_conductor_degree(gap_set[-1] + 1 if gap_set else 0)
        if name is None:
            name = "gaps-" + "-".join(map(str, gap_set)) if gap_set else "trivial"
        fns = tuple(Functional(Fraction(0), ((g, Fraction(1)),)) for g in gap_set)
        warnings = () if _complement_closed(gap_set) else (
            "gap complement is not closed under addition; the subspace is not a semigroup algebra",)
        return SubspaceSpec(name=name, functionals=fns, gaps=tuple(gap_set), warnings=warnings)

    # -- queries -----------------------------------------------------------------

    @property
    def points(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.top_orders))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubspaceSpec) and self.functionals == other.functionals

    def __hash__(self) -> int:  # computed once: every tower lookup hashes two specs
        return self._hash


def _complement_closed(gaps: Sequence[int]) -> bool:
    """Is N \\ gaps closed under addition?  Only sums <= max(gaps) matter."""
    gap_set = set(gaps)
    top = max(gaps, default=-1)
    non_gaps = [s for s in range(top + 1) if s not in gap_set]
    return not any(s + t in gap_set for s in non_gaps for t in non_gaps)


_TOP_KEYS = {"name", "kind", "gaps", "points"}
_POINT_KEYS = {"c", "functionals"}
_TERM_KEYS = {"order", "coeff"}


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:  # a dict passed in, not JSON text, may have keys that are not str
        raise SpecError(f"unknown keys in {where}: {sorted(unknown, key=str)}")


def parse_spec(document: str | dict) -> SubspaceSpec:
    """Parse and validate a subspace spec document (JSON text or dict).

    Two kinds are accepted::

        {"kind": "monomial", "gaps": [1, 2]}
        {"kind": "conditions",
         "points": [{"c": "0", "functionals": [[{"order": 1, "coeff": "1"}]]}]}

    Unknown keys are rejected; duplicate points are merged.  Rationals may be
    written as integers or "p/q" strings.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        # ValueError: a JSONDecodeError, or an integer literal of over 4300
        # digits; RecursionError: nested too deep to decode
        except (ValueError, RecursionError) as exc:
            raise SpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SpecError("spec document must be a JSON object")
    _check_keys(document, _TOP_KEYS, "spec")
    kind = document.get("kind")
    if kind not in ("monomial", "conditions"):
        raise SpecError("spec 'kind' must be 'monomial' or 'conditions'")
    name = document.get("name")  # SubspaceSpec checks it

    if kind == "monomial":
        if "points" in document:
            raise SpecError("monomial spec cannot carry 'points'")
        gaps = document.get("gaps")
        if not isinstance(gaps, list):  # from_gaps checks each entry
            raise SpecError("'gaps' must be a list of non-negative integers")
        return SubspaceSpec.from_gaps(name, gaps)

    if "gaps" in document:
        raise SpecError("conditions spec cannot carry 'gaps'")
    points = document.get("points")
    if not isinstance(points, list) or not points:
        raise SpecError("'points' must be a non-empty list (use a monomial "
                        "spec with empty gaps for the trivial subspace)")
    functionals: list[Functional] = []
    for entry in points:
        if not isinstance(entry, dict):
            raise SpecError("each point must be an object")
        _check_keys(entry, _POINT_KEYS, "point")
        if "c" not in entry or "functionals" not in entry:
            raise SpecError("point needs 'c' and 'functionals'")
        try:
            c = rat_from_str(entry["c"])
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        fns = entry["functionals"]
        if not isinstance(fns, list) or not fns:
            raise SpecError("'functionals' must be a non-empty list")
        for fn_terms in fns:
            if not isinstance(fn_terms, list) or not fn_terms:
                raise SpecError("each functional must be a non-empty list of terms")
            terms = []
            for term in fn_terms:
                if not isinstance(term, dict):
                    raise SpecError("each term must be an object")
                _check_keys(term, _TERM_KEYS, "term")
                if "order" not in term or "coeff" not in term:
                    raise SpecError("term needs 'order' and 'coeff'")
                try:
                    coeff = rat_from_str(term["coeff"])
                except ValueError as exc:
                    raise SpecError(str(exc)) from exc
                terms.append((term["order"], coeff))  # Functional checks the order
            functionals.append(Functional(c, tuple(terms)))
    if name is None:
        name = f"points-{len({fn.point for fn in functionals})}"
    return SubspaceSpec(name, functionals)

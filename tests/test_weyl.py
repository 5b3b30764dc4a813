"""Normal ordering, weighted degrees, symbols.

The product oracle goes through the action on C[x]: the Weyl algebra acts
faithfully on polynomials, so u*v is correct iff (u*v).f = u.(v.f) for
enough test polynomials, with the action itself checked against sympy
differentiation.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lmtool.linalg import Poly
from lmtool.weyl import SymbolPoly, Weight, WeylEl, dim_A, monomial_basis
from reference import parse_poly, parse_weyl, poly_to_sympy

X = sympy.Symbol("x")

rationals = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4
)


@st.composite
def weyl_elements(draw, max_exp=3, max_terms=4):
    pairs = st.tuples(
        st.integers(min_value=0, max_value=max_exp),
        st.integers(min_value=0, max_value=max_exp),
    )
    terms = draw(st.dictionaries(pairs, rationals, max_size=max_terms))
    return WeylEl({k: v for k, v in terms.items() if v})


@st.composite
def polys(draw, max_degree=5):
    coeffs = draw(st.lists(rationals, min_size=1, max_size=max_degree + 1))
    return Poly({i: c for i, c in enumerate(coeffs) if c})


weights = st.builds(
    Weight,
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)


def apply_via_sympy(u: WeylEl, f: Poly):
    fs = poly_to_sympy(f)
    out = sympy.Integer(0)
    for (a, b), c in u.items():
        out += sympy.Rational(c.numerator, c.denominator) * X ** a * sympy.diff(fs, X, b)
    return sympy.expand(out)


# -- construction and parsing ---------------------------------------------------

def test_defining_relation():
    x, d = WeylEl.x(), WeylEl.d()
    assert d * x - x * d == WeylEl.one()


def test_normal_order_example():
    d, x = WeylEl.d(), WeylEl.x()
    assert d * d * x * x == parse_weyl("x^2*d^2 + 4*x*d + 2")


def test_product_literals():
    euler = parse_weyl("x*d")
    assert euler * euler == parse_weyl("x^2*d^2 + x*d")
    # sanity through the action: x*d scales x^m by m, so its square scales by m^2
    for m in range(6):
        xm = Poly({m: Fraction(1)})
        assert (euler * euler).apply_poly(xm) == xm * Fraction(m * m)
    assert parse_weyl("x^2") * parse_weyl("d") == parse_weyl("x^2*d")


def test_parse_round_trip():
    u = parse_weyl("3*x^2*d - 1/2*d^2 + 5")
    assert parse_weyl(str(u)) == u
    assert WeylEl.zero() == parse_weyl("0")


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        Poly({-1: 1})
    with pytest.raises(ValueError):
        WeylEl({(0, -1): 1})
    with pytest.raises(ValueError):
        SymbolPoly({(-2, 0): 1})


@pytest.mark.parametrize("make,bad", [
    (Poly, 1.5),
    (Poly, Fraction(2)),
    (WeylEl, (1.9, 0)),
    (WeylEl, (0, Fraction(1, 2))),
    (SymbolPoly, (1, 2.0)),
    (WeylEl, 1),
])
def test_non_integer_exponents_rejected(make, bad):
    # rejected, not truncated: int() would make Poly({1.5: 1}) equal Poly.x()
    with pytest.raises(ValueError, match=make.__name__):
        make({bad: 1})


@given(st.one_of(weyl_elements(max_exp=2), polys(max_degree=3)), st.integers(min_value=0, max_value=4))
@settings(max_examples=60)
def test_pow_is_repeated_product(u, n):
    expected = type(u).one()
    for _ in range(n):
        expected = expected * u
    assert u ** n == expected
    with pytest.raises(ValueError):
        u ** -1


def test_from_poly_and_x_part():
    p = parse_poly("x^3 - 2")
    u = WeylEl.from_poly(p)
    assert u.x_part() == p
    assert u.max_d_order() == 0
    assert (u * WeylEl.d()).max_d_order() == 1


# -- the action ------------------------------------------------------------------

@given(weyl_elements(), polys())
@settings(max_examples=80)
def test_apply_poly_matches_sympy(u, f):
    assert poly_to_sympy(u.apply_poly(f)).equals(apply_via_sympy(u, f))


def test_apply_poly_literals():
    assert parse_weyl("x*d - 1").apply_poly(parse_poly("x")).is_zero
    assert parse_weyl("d^2").apply_poly(parse_poly("x^3")) == parse_poly("6*x")
    f = parse_poly("x^4 - 1/3*x + 2")
    assert WeylEl.one().apply_poly(f) == f


@given(weyl_elements(max_exp=2), weyl_elements(max_exp=2), polys(max_degree=4))
@settings(max_examples=80)
def test_product_compatible_with_action(u, v, f):
    assert (u * v).apply_poly(f) == u.apply_poly(v.apply_poly(f))


@given(weyl_elements(max_exp=2), weyl_elements(max_exp=2), weyl_elements(max_exp=2))
@settings(max_examples=60)
def test_mul_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(weyl_elements(), weyl_elements())
def test_mul_distributes(u, v):
    w = WeylEl.x() * WeylEl.d()
    assert w * (u + v) == w * u + w * v


# -- weighted degrees -------------------------------------------------------------

@given(weyl_elements(), weyl_elements(), weights)
def test_degree_additive(u, v, w):
    if u.is_zero or v.is_zero:
        return
    prod = u * v
    assert not prod.is_zero  # the algebra has no zero divisors
    assert prod.wdegree(w) == u.wdegree(w) + v.wdegree(w)


def test_wdegree_examples():
    assert parse_weyl("x^2*d").wdegree(Weight(1, 1)) == 3
    assert parse_weyl("x^2*d").wdegree(Weight(1, 2)) == 4
    assert parse_weyl("x^2 + d^3").wdegree(Weight(2, 1)) == 4
    assert parse_weyl("x*d^2 - d").wdegree(Weight(1, 1)) == 3
    assert WeylEl.zero().wdegree(Weight(1, 1)) is None


def test_weight_validation():
    with pytest.raises(ValueError):
        Weight(0, 1)
    with pytest.raises(ValueError):
        Weight(1, -2)
    assert Weight.parse("2, 3") == Weight(2, 3)
    with pytest.raises(ValueError):
        Weight.parse("2")


# -- symbols -----------------------------------------------------------------------

def test_top_component():
    u = parse_weyl("x^2*d^2 + 4*x*d + 2")
    sym = u.top_component(Weight(1, 1), 4)
    assert sym == SymbolPoly({(2, 2): Fraction(1)})
    with pytest.raises(ValueError):
        u.top_component(Weight(1, 1), 3)
    v = parse_weyl("x*d^2 - d")
    assert v.top_component(Weight(1, 1), 3) == SymbolPoly({(1, 2): Fraction(1)})
    # strictly below the requested degree: the class in that graded piece is zero
    assert v.top_component(Weight(1, 1), 4).is_zero
    w = parse_weyl("x^2 + d^2")
    assert w.top_component(Weight(1, 1), 2) == SymbolPoly(
        {(2, 0): Fraction(1), (0, 2): Fraction(1)}
    )


@given(weyl_elements(max_exp=2), weyl_elements(max_exp=2), weights)
@settings(max_examples=60)
def test_symbol_multiplicative(u, v, w):
    if u.is_zero or v.is_zero:
        return
    ku, kv = u.wdegree(w), v.wdegree(w)
    lhs = (u * v).top_component(w, ku + kv)
    rhs = u.top_component(w, ku) * v.top_component(w, kv)
    assert lhs == rhs


def test_symbol_divisibility_queries():
    sym = SymbolPoly({(3, 1): Fraction(1), (2, 0): Fraction(-2)})
    assert sym.min_x_exponent() == 2
    assert sym.divisible_by_x(2)
    assert not sym.divisible_by_x(3)


# -- graded dimension counting -------------------------------------------------------

@given(weights, st.integers(min_value=-2, max_value=12))
def test_dim_A_is_a_lattice_count(w, k):
    count = 0
    if k >= 0:
        for a in range(k + 1):
            for b in range(k + 1):
                if a * w.w1 + b * w.w2 <= k:
                    count += 1
    assert dim_A(w, k) == count


def test_dim_A_bernstein_closed_form():
    for k in range(10):
        assert dim_A(Weight(1, 1), k) == (k + 1) * (k + 2) // 2
    assert dim_A(Weight(1, 2), 3) == 6


def test_monomial_basis_order():
    assert monomial_basis(Weight(1, 1), 1) == ((0, 0), (1, 0), (0, 1))
    assert monomial_basis(Weight(2, 3), 1) == ((0, 0),)
    basis = monomial_basis(Weight(1, 2), 4)
    assert len(basis) == dim_A(Weight(1, 2), 4)
    degrees = [a + 2 * b for a, b in basis]
    assert degrees == sorted(degrees)
    # ties broken by d-order
    assert basis.index((2, 1)) > basis.index((4, 0))


@given(weights, st.integers(min_value=0, max_value=8))
def test_monomial_basis_matches_dim(w, k):
    basis = monomial_basis(w, k)
    assert len(basis) == dim_A(w, k)
    assert len(set(basis)) == len(basis)
    assert all(a * w.w1 + b * w.w2 <= k for a, b in basis)

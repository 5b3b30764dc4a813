"""Weyl elements and symbols: construction, weights, principal symbols,
and the monomial basis of the filtered pieces A_k."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lmtool.linalg import Poly
from lmtool.weyl import WEIGHT_LIMIT, Weight, WeylEl, monomial_basis
from reference import dim_A, parse_weyl

weights = st.builds(
    Weight,
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)


# -- construction and parsing ---------------------------------------------------

def test_parse_round_trip():
    u = parse_weyl("3*x^2*d - 1/2*d^2 + 5")
    assert parse_weyl(str(u)) == u
    assert WeylEl() == parse_weyl("0")


def test_only_poly_multiplies():
    # only two polynomials multiply: operators and symbols have no product,
    # with each other or with a polynomial, and no sum is scaled
    u, sym, p = parse_weyl("x*d + 1"), WeylEl({(1, 1): 1}), Poly({1: 1})
    for left, right in [(u, u), (sym, sym), (u, p), (p, u), (sym, u),
                        (u, 2), (2, u), (sym, Fraction(1, 2)), (p, 2), (2, p)]:
        with pytest.raises(TypeError):
            left * right
    for power in (u, p):  # not even a polynomial has a power
        with pytest.raises(TypeError):
            power ** 2


# -- weights ----------------------------------------------------------------------

def test_weight_validation():
    with pytest.raises(ValueError):
        Weight(0, 1)
    with pytest.raises(ValueError):
        Weight(1, -2)
    for w in ((True, 2), (2, True), (False, 1), (True, 1)):  # a bool is not a number
        with pytest.raises(ValueError, match="weights must be integers"):
            Weight(*w)
    assert Weight(WEIGHT_LIMIT, WEIGHT_LIMIT).w1 == WEIGHT_LIMIT == 64
    for w in ((65, 1), (1, 65), (10 ** 9, 1)):  # the CLI's text, now the weight's own
        with pytest.raises(ValueError, match=rf"^weight components must be at most 64, got '{w[0]},{w[1]}'$"):
            Weight(*w)
    assert Weight.parse("2, 3") == Weight(2, 3)
    assert hash(Weight(1, 1)) == hash(Weight(1, 1))  # a weight is a tower-cache key
    with pytest.raises(ValueError):
        Weight.parse("2")


def test_weight_refuses_a_huge_component_by_its_bit_length():
    # str() refuses an int of over 4300 digits, so the message shows a
    # component that long by its bit length, and still names the limit
    for w in ((10 ** 5000, 1), (1, 10 ** 5000), (2 ** 20000, 2 ** 20000)):
        bits = max(w).bit_length()
        with pytest.raises(ValueError, match=rf"^weight components must be at most 64, got a component of {bits} bits$"):
            Weight(*w)


# -- symbols -----------------------------------------------------------------------

def test_top_component():
    u = parse_weyl("x^2*d^2 + 4*x*d + 2")
    sym = u.top_component(Weight(1, 1), 4)
    assert sym == WeylEl({(2, 2): Fraction(1)})
    v = parse_weyl("x*d^2 - d")
    assert v.top_component(Weight(1, 1), 3) == WeylEl({(1, 2): Fraction(1)})
    # strictly below the requested degree: the class in that graded piece is zero
    assert v.top_component(Weight(1, 1), 4).is_zero
    w = parse_weyl("x^2 + d^2")
    assert w.top_component(Weight(1, 1), 2) == WeylEl(
        {(2, 0): Fraction(1), (0, 2): Fraction(1)}
    )


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


@given(weights, st.integers(min_value=-1, max_value=10), st.integers(min_value=0, max_value=10))
def test_monomial_basis_band_is_what_follows_the_lower_basis(w, lo, k):
    # the band of degrees lo..k, appended to the basis of A_(lo-1), is the basis of A_k
    lo = max(min(lo, k + 1), 0)
    assert monomial_basis(w, lo - 1) + monomial_basis(w, k, lo) == monomial_basis(w, k)

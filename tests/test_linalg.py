"""Exact polynomial and row-reduction layer, checked against sympy."""

import time
from bisect import bisect_left
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lmtool import graded
from lmtool.catalog import catalog_get
from lmtool.linalg import (
    Poly,
    RowReducer,
    poly_divmod,
    rat_from_str,
    rat_to_str,
)
from lmtool.weyl import Weight
from reference import StepwiseReducer, int_row, parse_poly, poly_to_sympy

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)


@st.composite
def polys(draw, max_degree=6):
    coeffs = draw(st.lists(rationals, min_size=0, max_size=max_degree + 1))
    return Poly({i: c for i, c in enumerate(coeffs) if c})


# -- rationals ---------------------------------------------------------------

def test_rat_string_round_trip():
    assert rat_to_str(Fraction(3, 4)) == "3/4"
    assert rat_to_str(Fraction(-5)) == "-5"
    assert rat_from_str("7/2") == Fraction(7, 2)
    assert rat_from_str("-3") == Fraction(-3)
    assert rat_from_str(str(Fraction(22, -6))) == Fraction(-11, 3)


def test_rat_rejects_garbage():
    with pytest.raises(ValueError):
        rat_from_str("1/0")
    with pytest.raises(ValueError):
        rat_from_str("x")


def test_rat_accepts_only_integer_literals():
    assert rat_from_str(" +12/8\n") == Fraction(3, 2)
    assert rat_from_str("\t-0 ") == 0
    assert rat_from_str(-4) == -4
    t0 = time.perf_counter()
    for text in ("2.5", "1e3", "1E3", "1e10000000", "1/2e3", ".5", "1_000", "3 / 4", "1/-2",
                 "nan", "inf", "0x10", "", " ", "1/", "/2", "\u0661", "9" * 5000):
        with pytest.raises(ValueError, match="not a rational"):
            rat_from_str(text)
    for value in (True, 2.5, None, Fraction(1, 2), b"1"):
        with pytest.raises(ValueError, match="not a rational"):
            rat_from_str(value)
    assert time.perf_counter() - t0 < 1.0


# -- polynomials --------------------------------------------------------------

def test_poly_basics():
    p = parse_poly("x^2 - 2*x + 1")
    assert p.degree() == 2
    assert str(p) == "x^2 - 2*x + 1"
    assert Poly().degree() is None
    assert Poly({0: 1}).degree() == 0


@given(polys(), polys())
def test_poly_mul_matches_sympy(p, q):
    assert poly_to_sympy(p * q).equals(sympy.expand(poly_to_sympy(p) * poly_to_sympy(q)))


@given(polys(), polys())
def test_poly_divmod_exact(p, q):
    if q.is_zero:
        return
    quo, rem = poly_divmod(p, q)
    assert sympy.expand(poly_to_sympy(quo * q) + poly_to_sympy(rem) - poly_to_sympy(p)) == 0
    assert rem.is_zero or rem.degree() < q.degree()


def test_poly_divmod_literals():
    quo, rem = poly_divmod(parse_poly("x^2 - 1"), parse_poly("x - 1"))
    assert quo == parse_poly("x + 1")
    assert rem.is_zero
    quo, rem = poly_divmod(parse_poly("x^2 + 1"), parse_poly("x"))
    assert quo == parse_poly("x")
    assert rem == parse_poly("1")


# -- row reduction -------------------------------------------------------------

@st.composite
def matrices(draw):
    """A non-empty list of equal-length rows of rationals."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    nrows = draw(st.integers(min_value=1, max_value=6))
    return draw(
        st.lists(
            st.lists(rationals, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )


def reduce_rows(rows) -> RowReducer:
    red = RowReducer(len(rows[0]))
    for r in rows:
        red.add_row(int_row(dict(enumerate(r))))
    return red


def to_sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])


@given(matrices())
@settings(max_examples=60)
def test_rank_matches_sympy(rows):
    assert reduce_rows(rows).rank == to_sympy_matrix(rows).rank()


@given(matrices())
@settings(max_examples=60)
def test_nullspace_is_a_nullspace_basis(rows):
    red = reduce_rows(rows)
    basis = red.nullspace()
    assert len(basis) == len(rows[0]) - red.rank
    for vec in basis:
        for r in rows:
            assert sum(r[j] * c for j, c in vec.items()) == 0
    # canonical: one vector per free column, unit there, supported no later
    free = [j for j in range(len(rows[0])) if j not in red.pivot_cols()]
    assert [max(v) for v in basis] == free
    for v, j in zip(basis, free):
        assert v[j] == 1


@given(matrices(), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_rref_is_row_order_invariant(rows, rng):
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert reduce_rows(rows).rref() == reduce_rows(shuffled).rref()


@st.composite
def sparse_cases(draw):
    """Integer rows with zeros, each also as {col: value} keeping some
    explicit zeros."""
    ncols = draw(st.integers(min_value=1, max_value=8))
    entry = st.one_of(st.just(0), st.integers(min_value=-30, max_value=30), rationals)
    rows = draw(st.lists(
        st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=7,
    ))
    rows = [[row.get(j, 0) for j in range(ncols)] for row in (int_row(dict(enumerate(r))) for r in rows)]
    maps = []
    for r in rows:
        keep_zero = draw(st.lists(st.booleans(), min_size=ncols, max_size=ncols))
        maps.append({j: v for j, (v, z) in enumerate(zip(r, keep_zero)) if v or z})
    return ncols, rows, maps


@given(sparse_cases())
@settings(max_examples=80)
def test_mapping_rows_reduce_like_dense_rows(case):
    ncols, rows, maps = case
    dense, sparse, copied = RowReducer(ncols), RowReducer(ncols), RowReducer(ncols)
    for r, m in zip(rows, maps):
        copy = dict(m)
        assert sparse.add_row(m) == dense.add_row(dict(enumerate(r))) == copied.add_row(copy)
    # add_row owns the dict it is offered: the row itself and its copy, taken
    # before the call, reduce alike
    assert (sparse.rank, sparse.pivot_cols(), sparse.rows, sparse.rref()) == (
        copied.rank, copied.pivot_cols(), copied.rows, copied.rref())
    assert sparse.rank == dense.rank
    assert sparse.pivot_cols() == dense.pivot_cols()
    for prefix in range(ncols + 1):
        assert sparse.nullspace(prefix) == dense.nullspace(prefix)
    pivots, rref_rows = sparse.rref()
    assert (pivots, rref_rows) == dense.rref()
    # the sparse back-substitution against sympy's reduced echelon form
    ref, ref_pivots = sympy.Matrix(rows).rref()
    assert pivots == ref_pivots
    assert [[sympy.Rational(r.get(j, 0)) for j in range(ncols)] for r in rref_rows] == [
        list(ref.row(i)) for i in range(len(pivots))
    ]


def test_nullspace_refuses_a_prefix_out_of_range():
    red = reduce_rows([[1, 2, 3]])
    assert [len(red.nullspace(n)) for n in range(4)] == [0, 0, 1, 2]


def test_all_zero_mapping_is_not_kept():
    red = RowReducer(3)
    assert not red.add_row({})
    assert not red.add_row({0: 0, 2: 0})
    assert red.rank == 0
    assert red.pivot_cols() == []
    assert red.add_row(int_row({2: Fraction(1, 2)}))
    assert red.rref() == ((2,), ({2: Fraction(1)},))


def test_prefix_rank_and_prefix_nullspace():
    red = reduce_rows([
        [1, 0, 2, 0],
        [0, 0, 1, 1],
    ])
    # the rank of each column prefix is the number of pivots before it
    assert [bisect_left(red.pivot_cols(), n) for n in range(5)] == [0, 1, 1, 2, 2]
    # truncating the 4-column nullspace vectors solves the 3-column system
    full = red.nullspace()
    pre = red.nullspace(3)
    assert [v for v in full if max(v) < 3] == list(pre)


def test_rank_literals():
    assert reduce_rows([[1, 2], [2, 4]]).rank == 1
    assert reduce_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank == 3
    assert reduce_rows([[0] * 5, [0] * 5]).rank == 0


def test_nullspace_literals():
    assert reduce_rows([[1, 1]]).nullspace() == ({0: Fraction(-1), 1: Fraction(1)},)
    assert reduce_rows([[1, 0], [0, 1]]).nullspace() == ()
    # no constraints at all: the canonical basis of the full space
    assert reduce_rows([[0, 0, 0]]).nullspace() == (
        {0: Fraction(1)},
        {1: Fraction(1)},
        {2: Fraction(1)},
    )


def test_add_row_reports_rank_growth():
    red = RowReducer(3)
    assert red.add_row({0: 1, 1: 2, 2: 3})
    assert not red.add_row({0: 2, 1: 4, 2: 6})
    assert red.add_row({1: 1, 2: 1})
    assert red.rank == 2


# -- the content is taken out once per finished row -----------------------------

# zero is drawn twice as often as each other kind, so rows have gaps
wide_entries = st.one_of(st.just(0), st.just(0), st.integers(min_value=-9, max_value=9),
                         st.integers(min_value=-10**40, max_value=10**40),
                         st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**9))


@st.composite
def chained_matrices(draw):
    """Up to 10 rows of up to 12 columns of big integers and Fractions.  Some
    rows are small combinations of earlier ones, so a row meets a chain of
    pivots and may reduce to zero."""
    ncols = draw(st.integers(min_value=1, max_value=12))
    rows: list[list] = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(wide_entries, min_size=ncols, max_size=ncols)))
    return ncols, [int_row(dict(enumerate(r))) for r in rows]


@given(chained_matrices())
@settings(max_examples=150, deadline=None)
def test_rows_equal_those_of_division_after_every_step(case):
    # each step only puts a positive factor on the row, so dividing its
    # content out once, when it is final, leaves the same primitive rows
    ncols, rows = case
    red, ref = RowReducer(ncols), StepwiseReducer()
    for r in rows:
        copy = dict(r)  # add_row owns r and may reduce it in place
        assert red.add_row(r) == ref.add_row(copy)
    assert red._rows == ref.rows
    assert red._pivot_of == ref.pivot_of
    assert red.rref() == ref.rref()


def test_mixed_end_tower_rows_equal_those_of_division_after_every_step(monkeypatch):
    # the tower's reducer and each point's own reducer get a reference each
    mirrored = []

    class Mirrored(RowReducer):
        """Offers every row to a reference reducer of its own as well."""

        def __init__(self, ncols):
            super().__init__(ncols)
            self.ref = StepwiseReducer()
            mirrored.append(self)

        def add_row(self, entries):
            copy = dict(entries)  # add_row owns entries and may reduce it in place
            kept = super().add_row(entries)
            assert self.ref.add_row(copy) == kept
            return kept

    monkeypatch.setattr(graded, "RowReducer", Mirrored)
    mixed = catalog_get("mixed")
    reducer = graded._Rows(mixed, mixed, Weight(1, 1), 30).reducer
    assert reducer.rank == 176
    assert len(mirrored) == len(mixed.points)
    for red in mirrored:
        assert red._rows == red.ref.rows
        assert red._pivot_of == red.ref.pivot_of
        assert red.rref() == red.ref.rref()

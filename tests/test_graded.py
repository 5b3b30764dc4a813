"""Filtered pieces of modules and hom spaces.

Two independent oracles guard this layer:

  * an action oracle -- every claimed basis element is pushed through sympy's
    rational-function arithmetic and must genuinely map the source subspace
    into the target;
  * a dimension oracle -- the same linear system is rebuilt from scratch with
    sympy (a low basis of V1 from sympy's nullspace, symbolic
    differentiation, polynomial division by g^(b_max+1), sympy's own rank),
    and the nullity must match the package's dimension.

The frozen fixtures below were computed by hand first and cross-checked by
both oracles before being pinned.
"""

from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import inf, prod

import pytest
import sympy
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from lmtool import cli, graded, linalg, subspace
from lmtool.catalog import catalog, catalog_get
from lmtool.graded import (
    _tower_for,
    clear_cache,
    gr_inclusion_check,
    gr_symbol_space,
    hom_dims,
    hom_piece,
    module_dims,
)
from lmtool.invariants import DEFAULT_WEIGHTS, chern_number, lm_invariant
from lmtool.linalg import Poly, RowReducer
from lmtool.subspace import Functional, SubspaceSpec, parse_spec
from lmtool.weyl import Weight, WeylEl, monomial_basis
import pins
from reference import (
    dim_A,
    frac,
    gap_hom_dims,
    in_subspace_sympy,
    int_row,
    jet_rows,
    low_basis_sympy,
    parse_weyl,
    poly_to_sympy,
    recentred_row,
    top_gaps,
    wdegree,
    wilson_partition,
)

X = sympy.Symbol("x")
W11 = Weight(1, 1)
W21 = Weight(2, 1)
# the module of V is the hom space from the trivial subspace (conductor 1)
TRIVIAL = SubspaceSpec.trivial()


def apply_u_sympy(u, fexpr):
    """u . f for a WeylEl u and a sympy expression f (possibly rational)."""
    out = sympy.Integer(0)
    for (a, b), c in u.items():
        out += frac(c) * X ** a * sympy.diff(fexpr, X, b)
    return sympy.cancel(out)


# ---------------------------------------------------------------------------
# independent dimension oracle
# ---------------------------------------------------------------------------

def _functional_poly(fn, p: sympy.Poly):
    """The functional applied to a sympy Poly in x."""
    return sum((frac(coeff) * p.diff((X, o)).eval(frac(fn.point)) for o, coeff in fn.terms),
               sympy.Integer(0))


@cache
def _cleared_derivative(src: SubspaceSpec, v, b: int) -> sympy.Poly:
    """N_b = g^(b+1) d^b(v/g) for the conductor g of src and a sympy
    polynomial v: a polynomial, since d^b(v/g) has denominator g^(b+1), and
    differentiating N_b / g^(b+1) gives N_(b+1) = N_b' g - (b+1) N_b g'.
    Cached because every k asks again."""
    if b == 0:
        return sympy.Poly(v, X)
    g = sympy.Poly(poly_to_sympy(src.conductor), X)
    prev = _cleared_derivative(src, v, b - 1)
    return prev.diff(X) * g - b * prev * g.diff(X)


def oracle_hom_dim(src: SubspaceSpec, dst: SubspaceSpec, weight: Weight, k: int) -> int:
    """dim of {u o g^-1 : wdeg <= k, u.(V1/g) in V2} rebuilt with sympy only."""
    g = sympy.Poly(poly_to_sympy(src.conductor), X)
    gdeg = src.conductor.degree()
    cols = monomial_basis(weight, k + weight.w1 * gdeg)
    if not cols:
        return 0
    b_max = max(b for _, b in cols)
    modulus = g ** (b_max + 1)
    rows = []

    # u . C[x] in V2, tested on (x-c)^s per functional
    for fn in dst.functionals:
        for s in range(fn.order + b_max + 1):
            f = sympy.Poly((X - frac(fn.point)) ** s, X)
            rows.append([_functional_poly(fn, sympy.Poly(X ** a, X) * f.diff((X, b))) for a, b in cols])

    # u . (v/g) polynomial and in V2, for each low-basis v
    for v in low_basis_sympy(src):
        # g^(b_max+1) d^b(v/g) is a polynomial; x^a times it is the numerator
        # of x^a d^b (v/g)
        cleared = {b: _cleared_derivative(src, v, b) * g ** (b_max - b) for b in {b for _, b in cols}}
        rem_rows = [[] for _ in range(modulus.degree())]
        fn_rows = [[] for _ in dst.functionals]
        for a, b in cols:
            quo, rem = sympy.div(sympy.Poly(X ** a, X) * cleared[b], modulus)
            rem_coeffs = rem.all_coeffs()[::-1] if not rem.is_zero else []
            for e in range(modulus.degree()):
                rem_rows[e].append(rem_coeffs[e] if e < len(rem_coeffs) else sympy.Integer(0))
            for i, fn in enumerate(dst.functionals):
                fn_rows[i].append(_functional_poly(fn, quo))
        rows.extend(rem_rows)
        rows.extend(fn_rows)

    if not rows:
        return len(cols)
    return len(cols) - DomainMatrix.from_list_sympy(len(rows), len(cols), rows).convert_to(QQ).rank()


def oracle_module_dim(spec: SubspaceSpec, weight: Weight, k: int) -> int:
    return oracle_hom_dim(SubspaceSpec.trivial(), spec, weight, k)


# ---------------------------------------------------------------------------
# frozen fixtures (hand-computed, oracle-confirmed)
# ---------------------------------------------------------------------------

def test_cusp_module_piece_k2():
    basis = hom_piece(TRIVIAL, catalog_get("cusp"), W11, 2)
    assert [str(u) for u in basis] == ["x^2", "x*d - 1"]


def _coeff_row(terms, idx):
    return int_row({idx[key]: c for key, c in terms})


def test_cusp_module_piece_k3():
    basis = hom_piece(TRIVIAL, catalog_get("cusp"), W11, 3)
    assert len(basis) == 5
    # same space as the hand-computed spanning set
    pinned = [parse_weyl(s) for s in ("1 - x*d", "d - x*d^2", "x^2", "x^3", "x^2*d")]
    idx = {key: j for j, key in enumerate(monomial_basis(W11, 3))}
    red = RowReducer(len(idx))
    assert sum(red.add_row(_coeff_row(u.items(), idx)) for u in pinned) == 5
    assert not any(red.add_row(_coeff_row(u.items(), idx)) for u in basis)


def test_cusp_module_dims():
    assert module_dims(catalog_get("cusp"), W11, 5) == [0, 0, 2, 5, 9, 14]


def test_cusp_endomorphism_dims():
    assert hom_dims(catalog_get("cusp"), catalog_get("cusp"), W11, 5) == [1, 1, 4, 8, 13, 19]


def test_cusp_endomorphism_piece_k2_contains_pinned_operator():
    cusp = catalog_get("cusp")
    basis = hom_piece(cusp, cusp, W11, 2)
    assert len(basis) == 4
    assert "x^2*d^2 + 2*x*d - 2" in {str(u) for u in basis}
    assert str(cusp.conductor) == "x^2"


def test_cusp_endomorphisms_below_degree_two_are_scalars():
    cusp = catalog_get("cusp")
    (u,) = hom_piece(cusp, cusp, W11, 1)
    assert str(u) == "x^2" and str(cusp.conductor) == "x^2"  # u o g^-1 = identity


def test_cusp_dual_dims():
    dims = hom_dims(catalog_get("cusp"), catalog_get("trivial"), W11, 5)
    assert dims == [2, 5, 9, 14, 20, 27]
    assert dims == [(k + 1) * (k + 4) // 2 for k in range(6)]


def test_trivial_pieces_are_all_of_A():
    triv = catalog_get("trivial")
    for k in (0, 1, 3):
        assert len(hom_piece(triv, triv, W11, k)) == dim_A(W11, k)
    assert hom_dims(triv, triv, W11, 4) == [dim_A(W11, k) for k in range(5)]


def test_negative_degrees_are_empty():
    cusp = catalog_get("cusp")
    assert hom_piece(TRIVIAL, cusp, W11, -1) == ()
    assert hom_piece(cusp, cusp, W11, -1) == ()
    assert hom_dims(TRIVIAL, cusp, W11, 2, kmin=-2) == [0, 0, 0, 0, 2]


# ---------------------------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------------------------

ORACLE_CASES = [
    ("cusp", W11, 4),
    ("cusp", W21, 5),
    ("gaps-1-2", W11, 4),
    ("gaps-1-3", W11, 3),
    ("two-point", W11, 3),
    ("mixed", W11, 2),
]


@pytest.mark.parametrize("name,weight,kmax", ORACLE_CASES)
def test_module_dims_match_oracle(name, weight, kmax):
    spec = catalog_get(name)
    ours = module_dims(spec, weight, kmax)
    theirs = [oracle_module_dim(spec, weight, k) for k in range(kmax + 1)]
    assert ours == theirs


@pytest.mark.parametrize("name,weight,kmax", [
    ("cusp", W11, 3),
    ("cusp", W21, 4),
    ("gaps-1-2", W11, 3),
    ("two-point", W11, 2),
])
def test_endomorphism_dims_match_oracle(name, weight, kmax):
    spec = catalog_get(name)
    ours = hom_dims(spec, spec, weight, kmax)
    theirs = [oracle_hom_dim(spec, spec, weight, k) for k in range(kmax + 1)]
    assert ours == theirs


# non-catalog specs at non-integer points: f'(1/2) = 0, f(-1/3) + 2f'(-1/3) = 0,
# and f'(1/2) = f'(-1/3) = 0; none has a point at 0, so their towers are
# centred elsewhere and hom_piece writes their bases back from (x - c0)^a d^b
EXTRA_SPECS = {
    "half-cusp": parse_spec({"kind": "conditions", "name": "half-cusp", "points": [
        {"c": "1/2", "functionals": [[{"order": 1, "coeff": 1}]]}]}),
    "third-mixed": parse_spec({"kind": "conditions", "name": "third-mixed", "points": [
        {"c": "-1/3", "functionals": [[{"order": 0, "coeff": 1}, {"order": 1, "coeff": 2}]]}]}),
    "off-zero-pair": parse_spec({"kind": "conditions", "name": "off-zero-pair", "points": [
        {"c": "1/2", "functionals": [[{"order": 1, "coeff": 1}]]},
        {"c": "-1/3", "functionals": [[{"order": 1, "coeff": 1}]]}]}),
}


def spec_named(name: str) -> SubspaceSpec:
    return EXTRA_SPECS[name] if name in EXTRA_SPECS else catalog_get(name)


@pytest.mark.parametrize("src,dst", [
    ("cusp", "trivial"),
    ("cusp", "gaps-1-2"),
    ("two-point", "cusp"),
    ("half-cusp", "cusp"),
    ("cusp", "half-cusp"),
    ("third-mixed", "cusp"),
])
def test_cross_hom_dims_match_oracle(src, dst):
    s, d = spec_named(src), spec_named(dst)
    ours = hom_dims(s, d, W11, 3)
    theirs = [oracle_hom_dim(s, d, W11, k) for k in range(4)]
    assert ours == theirs


# gap sets at 0 are built at the centre alone, so these check the c = c0
# walk against the closed form, at every level from -1 to kmax
gap_sets = st.lists(st.integers(min_value=0, max_value=8), max_size=5).map(lambda g: tuple(sorted(set(g))))
gap_weights = st.tuples(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
gap_kmax = st.integers(min_value=0, max_value=30)


def assert_gap_hom_dims(gaps1, gaps2, w, kmax):
    src, dst = SubspaceSpec.from_gaps("src", gaps1), SubspaceSpec.from_gaps("dst", gaps2)
    assert hom_dims(src, dst, Weight(*w), kmax, kmin=-1) == gap_hom_dims(gaps1, gaps2, *w, kmax)


@given(gap_sets, gap_sets, gap_weights, gap_kmax)
@settings(max_examples=100, deadline=None)
def test_gap_set_hom_dims_match_closed_form(gaps1, gaps2, w, kmax):
    assert_gap_hom_dims(gaps1, gaps2, w, kmax)


@given(gap_sets, st.sampled_from(["module", "End", "dual"]), gap_weights, gap_kmax)
@settings(max_examples=100, deadline=None)
def test_gap_set_module_end_dual_match_closed_form(gaps, kind, w, kmax):
    gaps1, gaps2 = {"module": ((), gaps), "End": (gaps, gaps), "dual": (gaps, ())}[kind]
    assert_gap_hom_dims(gaps1, gaps2, w, kmax)


def test_gap_set_closed_form_literals():
    # the cusp C[x^2, x^3]: module, End and dual at (1,1), as pinned above
    assert gap_hom_dims((), (1,), 1, 1, 5) == [0, 0, 0, 2, 5, 9, 14]
    assert gap_hom_dims((1,), (1,), 1, 1, 5) == [0, 1, 1, 4, 8, 13, 19]
    assert gap_hom_dims((1,), (), 1, 1, 5) == [0, 2, 5, 9, 14, 20, 27]


# the collision bound: x -> lambda*x moves every point to 0 as lambda -> 0,
# and V tends to the gap set s(V) (``top_gaps``); the weighted filtrations
# are invariant and p.V1 in V2 is a closed condition, so no dimension drops
# at the limit.  A missing row makes a dimension too large and breaks it
COLLISION_POINTS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(3)]


@st.composite
def collision_specs(draw, points=st.lists(st.sampled_from(COLLISION_POINTS), min_size=1, max_size=3, unique=True)):
    fns = []
    for c in draw(points):
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            coeffs = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=4))
            if not any(coeffs):
                coeffs[-1] = 1
            fns.append(Functional(c, tuple((o, v) for o, v in enumerate(coeffs) if v)))
    return SubspaceSpec("collision", fns)


@st.composite
def distinct_one_point_specs(draw):
    # a missing carried row breaks the bound mostly on such pairs, e.g.
    # V1 = {f'(1) = 0} and V2 = {f(3) = 0} at (2,3)
    c1, c2 = draw(st.lists(st.sampled_from(COLLISION_POINTS), min_size=2, max_size=2, unique=True))
    return draw(collision_specs(st.just([c1]))), draw(collision_specs(st.just([c2])))


@given(collision_specs(), collision_specs(), distinct_one_point_specs(), st.sampled_from([W11, Weight(2, 3)]))
@settings(max_examples=60, deadline=None)
def test_hom_dims_are_bounded_by_the_collision_limit(v1, v2, one_point_pair, weight):
    kmax = 16
    for src, dst in [(TRIVIAL, v1), (v1, v1), (v1, TRIVIAL), (v1, v2), one_point_pair]:
        ours = hom_dims(src, dst, weight, kmax, kmin=-1)
        bound = gap_hom_dims(top_gaps(src), top_gaps(dst), weight.w1, weight.w2, kmax)
        assert all(d <= b for d, b in zip(ours, bound)), (src.functionals, dst.functionals, weight, ours, bound)


# ---------------------------------------------------------------------------
# action verification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,weight,k", [
    ("cusp", W11, 4),
    ("gaps-1-2", W11, 4),
    ("gaps-1-2-3", W11, 3),
    ("two-point", W21, 4),
    ("mixed", W11, 3),
])
def test_module_basis_maps_polynomials_into_subspace(name, weight, k):
    spec = catalog_get(name)
    basis = hom_piece(TRIVIAL, spec, weight, k)
    for u in basis:
        assert wdegree(u, weight) <= k
        for j in range(spec.conductor.degree() + max_order(basis) + 2):
            image = apply_u_sympy(u, X ** j)
            assert in_subspace_sympy(spec, image), (str(u), j)


def max_order(basis) -> int:
    """The largest d-exponent in a basis of numerators (0 if it is empty)."""
    return max((b for u in basis for (_, b), _ in u.items()), default=0)


@pytest.mark.parametrize("src,dst,weight,k", [
    ("cusp", "cusp", W11, 3),
    ("cusp", "trivial", W11, 2),
    ("cusp", "gaps-1-2", W11, 3),
    ("two-point", "cusp", W11, 2),
    ("mixed", "mixed", W11, 1),
    ("half-cusp", "half-cusp", W11, 3),
    ("half-cusp", "trivial", W21, 3),
    ("off-zero-pair", "off-zero-pair", W11, 2),
    ("half-cusp", "off-zero-pair", W11, 2),
    ("third-mixed", "off-zero-pair", Weight(1, 2), 3),
])
def test_hom_basis_maps_source_into_target(src, dst, weight, k):
    s, d = spec_named(src), spec_named(dst)
    basis = hom_piece(s, d, weight, k)
    g = poly_to_sympy(s.conductor)
    b_top = max_order(basis)
    d_top = max((fn.order for fn in d.functionals), default=0)
    for u in basis:
        # u o g^-1 has the weighted degree of u less w1 * deg g
        assert wdegree(u, weight) - weight.w1 * s.conductor.degree() <= k
        # on the conductor tail g*x^j the action is u.x^j
        for j in range(b_top + d_top + 2):
            assert in_subspace_sympy(d, apply_u_sympy(u, X ** j)), (str(u), "tail", j)
        # on the low basis the pole must genuinely cancel
        for v in low_basis_sympy(s):
            image = apply_u_sympy(u, v / g)
            assert in_subspace_sympy(d, image), (str(u), str(v))


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

spec_names = st.sampled_from(["trivial", "cusp", "gaps-1-2", "gaps-1-3", "two-point", "off-zero-pair"])
small_weights = st.builds(
    Weight, st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2)
)


@given(spec_names, small_weights, st.integers(min_value=0, max_value=6))
@settings(max_examples=30, deadline=None)
def test_bases_are_nested(name, weight, k):
    spec = spec_named(name)
    lower = hom_piece(spec, spec, weight, k)
    upper = hom_piece(spec, spec, weight, k + 1)
    assert upper[: len(lower)] == lower


@given(spec_names, st.integers(min_value=0, max_value=5))
@settings(max_examples=20, deadline=None)
def test_dimension_only_depends_on_scaled_weight(name, k):
    # (2,2) assigns twice the (1,1)-degree, so level 2k recovers level k
    spec = spec_named(name)
    assert hom_dims(spec, spec, Weight(2, 2), 2 * k, kmin=2 * k)[0] == \
        hom_dims(spec, spec, W11, k, kmin=k)[0]


TRANSLATION_POINTS = ["1", "-1", "1/2", "-2/3", "2"]


@st.composite
def condition_points(draw, max_off_zero: int = 2, max_order: int = 2):
    """The points of a conditions spec, as (c, functionals) with each
    functional a list of (order, coeff): up to max_off_zero points other
    than 0, and 0 too at least half the time (always if there is no other),
    one or two functionals of order <= max_order at each."""
    points = draw(st.lists(st.sampled_from(TRANSLATION_POINTS), max_size=max_off_zero, unique=True))
    if not points or draw(st.booleans()):
        points.append("0")
    out = []
    for c in points:
        fns = []
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            coeffs = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=max_order + 1))
            if not any(coeffs):
                coeffs[-1] = 1
            fns.append([(o, v) for o, v in enumerate(coeffs) if v])
        out.append((Fraction(c), fns))
    return out


def translated(points, t: Fraction, s: int = 1) -> SubspaceSpec:
    """The conditions spec with every point c moved to s*c + t, s = +-1: the
    image of V under f(x) -> f(s*(x - t)), which turns f^(o)(c) into
    s^o f^(o)(s*c + t)."""
    return parse_spec({"kind": "conditions", "points": [
        {"c": str(s * c + t),
         "functionals": [[{"order": o, "coeff": v * s ** o} for o, v in fn] for fn in fns]}
        for c, fns in points]})


@given(condition_points(), condition_points(),
       st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(1)]), st.sampled_from([1, -1]))
@settings(max_examples=25, deadline=None)
def test_dimensions_are_translation_invariant(points1, points2, t, s):
    # x -> s*x + t, d -> s*d keeps every weighted filtration, so no dimension
    # moves; nor do the pivot columns, because each column (x - c)^a d^b is
    # +-x^a d^b plus earlier columns, for any centre c, so every
    # column-prefix span is the same; the graded-inclusion reading follows
    # from the pivots.  A tower is centred at its least point, so s = -1
    # moves a point's conditions between the centre, whose rows go to the
    # tower's reducer, and a point whose kept rows are carried to it
    kmax = 10
    v1, v2 = translated(points1, Fraction(0)), translated(points2, Fraction(0))
    u1, u2 = translated(points1, t, s), translated(points2, t, s)
    for weight in DEFAULT_WEIGHTS:
        assert module_dims(v1, weight, kmax) == module_dims(u1, weight, kmax), weight
        assert hom_dims(v1, v1, weight, kmax) == hom_dims(u1, u1, weight, kmax), weight
        assert hom_dims(v1, v2, weight, kmax) == hom_dims(u1, u2, weight, kmax), weight
        for (s1, d1), (s2, d2) in [((TRIVIAL, v1), (TRIVIAL, u1)), ((v1, v1), (u1, u1)),
                                   ((v1, v2), (u1, u2))]:
            # a cached tower may run past kmax, so compare pivots up to it
            t1, t2 = _tower_for(s1, d1, weight, kmax), _tower_for(s2, d2, weight, kmax)
            n = t1.ncols_at(kmax)
            assert [j for j in t1.pivots if j < n] == [j for j in t2.pivots if j < n], weight
            assert [t1.gr_divisible(k) for k in range(kmax + 1)] == \
                [t2.gr_divisible(k) for k in range(kmax + 1)], weight


@given(condition_points(max_off_zero=1, max_order=1), condition_points(max_off_zero=1, max_order=1),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_off_zero_hom_dims_match_oracle(points1, points2, k):
    # End and cross hom of conditions specs, most with a point off 0,
    # against the sympy rebuild, which reads V1 through a low basis of the
    # whole of it rather than one root of g at a time; conductors of degree
    # <= 4 keep the oracle within about a second for all examples
    v1, v2 = translated(points1, Fraction(0)), translated(points2, Fraction(0))
    for src, dst in [(v1, v1), (v1, v2)]:
        assert hom_dims(src, dst, W11, k, kmin=k) == [oracle_hom_dim(src, dst, W11, k)], (src, dst)


# ---------------------------------------------------------------------------
# the rows of one Laurent jet
# ---------------------------------------------------------------------------

@st.composite
def jet_cases(draw):
    """A weight, a top degree k_u, a jet {e: y} of one of the two shapes
    the towers build -- t^s, one term with 0 <= s <= 9, or one to four
    terms with exponents from -4 to -1 -- and up to three functionals of
    orders <= d for a top order d >= -1, each as its (o, cf) pairs by
    rising o, as digit rows are."""
    weight = draw(st.sampled_from(DEFAULT_WEIGHTS))
    k_u = draw(st.integers(min_value=0, max_value=12))
    if draw(st.booleans()):
        exponents = [draw(st.integers(min_value=0, max_value=9))]
    else:
        exponents = draw(st.lists(st.integers(min_value=-4, max_value=-1), min_size=1, max_size=4, unique=True))
    jet = {e: draw(st.integers(min_value=-50, max_value=50).filter(bool)) for e in exponents}
    d = draw(st.integers(min_value=-1, max_value=5))
    terms = st.lists(st.tuples(st.integers(min_value=0, max_value=max(d, 0)),
                               st.integers(min_value=-9, max_value=9).filter(bool)),
                     min_size=1, max_size=3, unique_by=lambda term: term[0])
    reads = [sorted(read) for read in draw(st.lists(terms, max_size=3))] if d >= 0 else []
    return weight, k_u, jet, reads


@given(jet_cases())
@settings(max_examples=300, deadline=None)
def test_jet_rows_match_the_laurent_coefficients(case):
    # each walk must return the pole and value rows read off each column's
    # own Laurent coefficients, in the same order: _sum_rows exactly for a
    # jet of two or more terms, and _term_rows, given the exponent e of one
    # term y t^e, each row without the factor y e^(b1) that all its entries
    # share, b1 the first order it reads -- max(b - a, 0) for a pole row,
    # whose every column (a, b) reads t^(e - b + a) alike, and
    # max(e - o_top, 0) for the value row of a functional of top order o_top
    weight, k_u, jet, reads = case
    rows = graded._Rows(TRIVIAL, TRIVIAL, weight, k_u)  # no points: columns only
    columns = monomial_basis(weight, k_u)
    want = jet_rows(jet, reads, columns)
    if len(jet) > 1:
        assert rows._sum_rows(jet, reads) == want
        return
    [(e, y)] = jet.items()
    offered = rows._term_rows(e, reads)
    poles = jet_rows(jet, [], columns)
    firsts = [max(b - a, 0) for row in poles for a, b in [columns[min(row)]]]
    for terms in reads:  # a functional whose row is empty offers none
        firsts += [max(e - terms[-1][0], 0)] * (len(jet_rows(jet, [terms], columns)) - len(poles))
    assert len(offered) == len(firsts) == len(want)
    assert [{i: v * y * falling(e, b1) for i, v in row.items()} for row, b1 in zip(offered, firsts)] == want


def falling(e: int, b: int) -> int:
    """The falling factorial e^(b) = e(e - 1)...(e - b + 1), e of either sign."""
    return prod(range(e, e - b, -1))


def test_every_jet_is_t_s_or_a_principal_part(monkeypatch):
    # _term_rows writes the rows of one term t^e, each from its own first
    # order, and _sum_rows those of a longer jet in one walk from order 0,
    # where its coefficients are exact only if every exponent is negative:
    # every jet the towers pass to _sum_rows must have negative exponents
    # only (the towers' one-term jets are t^s or a single pole term)
    exponents, jets = [], []
    term_rows, sum_rows = graded._Rows._term_rows, graded._Rows._sum_rows

    def recorded_term(self, e, reads):
        exponents.append(e)
        return term_rows(self, e, reads)

    def recorded_sum(self, jet, reads):
        jets.append(jet)
        return sum_rows(self, jet, reads)

    monkeypatch.setattr(graded._Rows, "_term_rows", recorded_term)
    monkeypatch.setattr(graded._Rows, "_sum_rows", recorded_sum)
    clear_cache()
    for src, dst, weight in pins.pinned_towers():
        graded._Rows(src, dst, weight, 12)
    for name in ("conditions-sweep", "monomial-deep"):
        sweep = pins.workloads.SWEEPS[name](1)
        clear_cache()
        assert not [problem for spec in sweep.specs for problem in sweep.check(spec)], name
    assert [jet for jet in jets if len(jet) < 2 or max(jet) >= 0] == []
    assert min(exponents) < 0 <= max(exponents) and jets


# ---------------------------------------------------------------------------
# rows reduced at their own point and carried to the centre
# ---------------------------------------------------------------------------

CARRY_OFFSETS = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2), Fraction(2)]


@st.composite
def local_rows(draw):
    """A weight, a top degree and a sparse integer row on the columns
    (x - c)^i d^b of weighted degree <= top, keyed (i, b)."""
    weight = draw(st.sampled_from(DEFAULT_WEIGHTS))
    top = draw(st.integers(min_value=0, max_value=12))
    monomials = [(i, b) for b in range(top // weight.w2 + 1) for i in range((top - weight.w2 * b) // weight.w1 + 1)]
    keys = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
    values = draw(st.lists(st.integers(min_value=-10**6, max_value=10**6).filter(bool),
                           min_size=len(keys), max_size=len(keys)))
    return weight, top, dict(zip(keys, values))


@given(local_rows(), st.sampled_from(CARRY_OFFSETS))
@settings(max_examples=200, deadline=None)
def test_carried_row_is_the_change_of_centre(case, offset):
    # a row kept at c in the columns (x - c)^i d^b, carried to c0 = c -
    # offset, must read on (x - c0)^a d^b as the binomial change of basis
    # does, up to a nonzero scale, and keep its leading column
    weight, top, row = case
    rows = graded._Rows(TRIVIAL, TRIVIAL, weight, top)  # no points: columns only
    index = {m: j for j, m in enumerate(rows.columns.cols)}
    [carried] = rows._carried([{index[m]: v for m, v in row.items()}], offset)
    carried = {rows.columns.cols[j]: v for j, v in carried.items() if v}
    want = recentred_row(row, offset, weight.w1, weight.w2, top)
    lead = min(row, key=index.get)
    assert min(carried, key=index.get) == min(want, key=index.get) == lead
    scale = carried[lead] / want[lead]
    assert {m: v / scale for m, v in carried.items()} == want


@st.composite
def three_points(draw):
    """Three distinct points, 0 among the choices, with one functional of
    order <= 1 at each: the least is the centre and the other two carry."""
    points = draw(st.lists(st.sampled_from(["0", *TRANSLATION_POINTS]), min_size=3, max_size=3, unique=True))
    out = []
    for c in points:
        coeffs = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=2))
        if not any(coeffs):
            coeffs[-1] = 1
        out.append((Fraction(c), [[(o, v) for o, v in enumerate(coeffs) if v]]))
    return out


# no shrink phase: shrinking a failure through the sympy oracle takes minutes
@given(three_points(), three_points(), st.integers(min_value=0, max_value=1))
@settings(max_examples=15, deadline=None, phases=[phase for phase in Phase if phase is not Phase.shrink])
def test_three_point_hom_dims_match_oracle(points1, points2, k):
    # two points of each spec reduce their rows on their own and carry them
    # to one reducer; End and cross hom against the sympy rebuild, and the
    # module tower the build caches from its t^s rows against the module's
    v1, v2 = translated(points1, Fraction(0)), translated(points2, Fraction(0))
    for src, dst in [(v1, v1), (v1, v2)]:
        clear_cache()
        assert hom_dims(src, dst, W11, k, kmin=k) == [oracle_hom_dim(src, dst, W11, k)], (src, dst)
        top = k + src.conductor.degree()
        assert graded._tower_cache[TRIVIAL, dst, W11].kmax == top
        assert hom_dims(TRIVIAL, dst, W11, top, kmin=top) == [oracle_module_dim(dst, W11, top)], (src, dst)


def test_pivots_and_rref_are_pinned():
    towers = pins.pinned_towers()
    assert len(towers) == 804
    for reverse in (False, True):
        assert pins.echelon_sha256(towers, reverse) == pins.ECHELON_SHA256, reverse


def test_offered_rows_are_pinned():
    assert pins.offered_rows(pins.pinned_towers()) == (
        pins.OFFERED_ROWS, pins.OFFERED_ROWS_SHA256, pins.OFFERED_ROWS_SORTED_SHA256)


def test_build_counts_are_pinned():
    # each cache still hits: a tower, a column table or a principal part
    # built twice in one pass moves these counts; a pass whose results are
    # wrong raises
    assert pins.build_counts() == pins.BUILD_COUNTS


def test_every_row_offered_is_an_int_row(monkeypatch):
    # RowReducer.add_row takes {column: int} and checks nothing: every row
    # the towers build (t^s rows, P_w rows, rows carried from a point other
    # than c0) and every row the spec parser builds must already be one
    offered = 0

    class IntRowReducer(RowReducer):
        def add_row(self, entries):
            nonlocal offered
            assert type(entries) is dict, entries
            assert all(type(t) is int and type(v) is int for t, v in entries.items()), entries
            offered += 1
            return super().add_row(entries)

    monkeypatch.setattr(graded, "RowReducer", IntRowReducer)
    monkeypatch.setattr(subspace, "RowReducer", IntRowReducer)
    sweep = pins.workloads.ConditionsSweep(1).specs  # parsed with the check in place
    parsed = offered
    assert parsed
    for spec in list(catalog()) + sweep:
        for weight in DEFAULT_WEIGHTS:
            for src, dst in [(spec, spec), (TRIVIAL, spec), (spec, TRIVIAL)]:
                graded._Rows(src, dst, weight, 12)
    assert offered > parsed


def test_every_term_key_is_built_non_negative(monkeypatch, capsys):
    # linalg.Terms checks no key: every Poly lmtool builds (conductors,
    # Taylor digits) must key by a non-negative int, and every WeylEl
    # (numerators, symbols) by a pair
    init = linalg.Terms.__init__
    built = set()

    def checked_init(self, terms=()):
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        for key, _ in items:
            exps = (key,) if type(self) is Poly else key
            assert type(exps) is tuple and len(exps) == len(self._vars), (self._vars, key)
            assert all(type(e) is int and e >= 0 for e in exps), (self._vars, key)
        built.add(type(self).__name__)
        init(self, items)

    monkeypatch.setattr(linalg.Terms, "__init__", checked_init)
    clear_cache()
    pins.pinned_specs()
    assert cli.run(["verify", "--kmax", "12"]) == 0
    capsys.readouterr()
    for spec in catalog():
        for weight, k in ((W11, 3), (W21, 2)):
            hom_piece(spec, spec, weight, k)
            gr_symbol_space(spec, spec, weight, k)
    assert built == {"Poly", "WeylEl"}


# ---------------------------------------------------------------------------
# the module tower a build caches on the side
# ---------------------------------------------------------------------------

def fresh_module_dims(dst: SubspaceSpec, weight: Weight, kmax: int) -> list[int]:
    """Module dims for k = -1..kmax from the pivots of a build of its own."""
    pivots = graded._Rows(TRIVIAL, dst, weight, kmax).reducer.pivot_cols()
    return [dim_A(weight, k) - bisect_left(pivots, dim_A(weight, k)) for k in range(-1, kmax + 1)]


def assert_side_module_is_fresh(src: SubspaceSpec, dst: SubspaceSpec, weight: Weight, kmax: int) -> None:
    # a cold build of (src, dst) caches (TRIVIAL, dst) at kmax + w1*deg(g)
    # from the pivots of its t^s rows; every level must read as a build of
    # the module itself, whose centre is dst's least point, not the least
    # point of src and dst
    clear_cache()
    _tower_for(src, dst, weight, kmax)
    module = graded._tower_cache[TRIVIAL, dst, weight]
    top = kmax + weight.w1 * src.conductor.degree()
    assert module.kmax == top, (src, dst, weight)
    assert [module.dim(k) for k in range(-1, top + 1)] == fresh_module_dims(dst, weight, top), (src, dst, weight)


def test_side_module_tower_of_pinned_specs():
    # End and dual of the catalog and both sweeps at seeds 1-3, and cross
    # towers between specs with no point at 0, whose centre is src's point
    specs = pins.pinned_specs()
    cross = [(EXTRA_SPECS["third-mixed"], EXTRA_SPECS["half-cusp"]),
             (EXTRA_SPECS["off-zero-pair"], EXTRA_SPECS["half-cusp"]),
             (catalog_get("mixed"), EXTRA_SPECS["half-cusp"])]
    assert all(min(src.points) < min(dst.points) for src, dst in cross)
    for weight in DEFAULT_WEIGHTS:
        for src, dst in [(spec, other) for spec in specs for other in (spec, TRIVIAL)] + cross:
            assert_side_module_is_fresh(src, dst, weight, 12)


@given(condition_points(), condition_points(), st.sampled_from(DEFAULT_WEIGHTS), st.integers(min_value=0, max_value=8))
@settings(max_examples=40, deadline=None)
def test_side_module_tower_of_condition_specs(points1, points2, weight, kmax):
    v1, v2 = translated(points1, Fraction(0)), translated(points2, Fraction(0))
    for src, dst in [(v1, v1), (v1, v2), (v2, v1), (v1, TRIVIAL)]:
        assert_side_module_is_fresh(src, dst, weight, kmax)


def counted_builds(monkeypatch) -> list:
    """Patch graded._Rows to record the arguments of every build."""
    built = []

    class CountingRows(graded._Rows):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(graded, "_Rows", CountingRows)
    return built


@given(gap_sets, gap_weights, st.integers(min_value=0, max_value=20))
@settings(max_examples=50, deadline=None)
def test_module_after_end_builds_nothing(gaps, w, kmax):
    spec, weight = SubspaceSpec.from_gaps("spec", gaps), Weight(*w)
    top = kmax + weight.w1 * spec.conductor.degree()
    clear_cache()
    with pytest.MonkeyPatch.context() as mp:
        built = counted_builds(mp)
        hom_dims(spec, spec, weight, kmax)
        assert len(built) == 1
        assert hom_dims(TRIVIAL, spec, weight, top, kmin=-1) == gap_hom_dims((), gaps, *w, top)
        assert len(built) == 1


@given(condition_points(), condition_points(), st.sampled_from(DEFAULT_WEIGHTS))
@settings(max_examples=20, deadline=None)
def test_cached_tower_reads_like_its_reducer(points1, points2, weight):
    # the cache keeps only pivots and column x-exponents; every dimension
    # and graded-inclusion reading must equal the one taken from the
    # canonical nullspace of a fresh reducer of the same rows, whose vector
    # for free column j is supported on columns <= j; kmax 12 is asked for,
    # so every k <= 12 is checked whatever the cache's least build level
    v1, v2 = translated(points1, Fraction(0)), translated(points2, Fraction(0))
    clear_cache()
    for src, dst in [(TRIVIAL, v1), (v1, v1), (v1, v2)]:
        tower = _tower_for(src, dst, weight, 12)
        rows = graded._Rows(src, dst, weight, tower.kmax)
        free = [max(vec) for vec in rows.reducer.nullspace()]
        gdeg = src.conductor.degree()
        for k in range(tower.kmax + 1):
            lo, hi = tower.ncols_at(k - 1), tower.ncols_at(k)
            assert tower.dim(k) == sum(j < hi for j in free), (src, dst, k)
            assert tower.gr_divisible(k) == all(
                rows.columns.cols[j][0] >= gdeg for j in free if lo <= j < hi), (src, dst, k)


def test_results_survive_cache_clears():
    cusp = catalog_get("cusp")
    first = [str(u) for u in hom_piece(TRIVIAL, cusp, W11, 3)]
    clear_cache()
    second = [str(u) for u in hom_piece(TRIVIAL, cusp, W11, 3)]
    assert first == second
    clear_cache()
    assert hom_dims(cusp, cusp, W11, 6) == [1, 1, 4, 8, 13, 19, 26]


# ---------------------------------------------------------------------------
# the column table every tower of a weight shares
# ---------------------------------------------------------------------------

def assert_table_reads_as_monomial_basis(weight: Weight, top: int) -> None:
    # the table's columns, column index and counts up to top, each against
    # monomial_basis and dim_A
    table = graded._column_tables[weight]
    cols = list(monomial_basis(weight, top))
    assert table.cols[:len(cols)] == cols
    assert all(table.index[b][a] == j for j, (a, b) in enumerate(cols))
    assert table.counts[:top + 2] == [dim_A(weight, K) for K in range(-1, top + 1)]


@pytest.mark.parametrize("weight", DEFAULT_WEIGHTS, ids=str)
@pytest.mark.parametrize("first,second", [(20, 50), (50, 20)])
def test_column_table_is_a_prefix_of_the_monomial_basis(weight, first, second):
    # grown by a band from 20 to 50, or built at 50 and then read at 20
    clear_cache()
    graded._columns(weight, first)
    graded._columns(weight, second)
    assert len(graded._column_tables[weight].counts) == 52
    for top in (20, 50):
        assert_table_reads_as_monomial_basis(weight, top)


@given(st.sampled_from(DEFAULT_WEIGHTS) | st.builds(Weight, st.integers(min_value=1, max_value=9),
                                                    st.integers(min_value=1, max_value=9)),
       st.lists(st.integers(min_value=-1, max_value=40), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_column_counts_are_dim_A(weight, tops):
    # grown in any order of degrees, the counts are dim A_K for K = -1..top,
    # and column_counts reads dim A_k for k = 0..kmax from them
    clear_cache()
    for top in tops:
        graded._columns(weight, top)
    top = max(tops)
    assert_table_reads_as_monomial_basis(weight, top)
    kmax = max(top, 0)
    assert graded.column_counts(weight, kmax) == [dim_A(weight, k) for k in range(kmax + 1)]


@given(st.builds(Weight, st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9)),
       st.integers(min_value=-1, max_value=40), st.integers(min_value=0, max_value=20))
@settings(max_examples=60, deadline=None)
def test_system_reads_its_columns_from_the_table(weight, top, grown):
    # a system at top degree K, in a table grown to K or past it, reads for
    # each d-order b <= K // w2 the columns of degree <= K: the first
    # (K - b*w2) // w1 + 1 of the table's columns of b
    clear_cache()
    graded._columns(weight, top + grown)
    rows = graded._Rows(TRIVIAL, TRIVIAL, weight, top)
    assert rows.top == top
    assert len(rows.col_of) == top // weight.w2 + 1
    for b, col in enumerate(rows.col_of):
        assert len(col) == (top - b * weight.w2) // weight.w1 + 1, b
        assert col == rows.columns.index[b][:len(col)]
    assert rows.reducer.ncols == rows.columns.ncols(top) == dim_A(weight, top)


@pytest.mark.parametrize("weight", DEFAULT_WEIGHTS, ids=str)
def test_tower_after_a_larger_one_reads_as_from_an_empty_cache(weight):
    # a build that finds the table grown past its own degree by a larger
    # build reads the same pivots, dimensions and graded inclusion as one
    # that grows the table itself
    towers = [(spec, other) for name in ("cusp", "two-point", "mixed", "off-zero-pair")
              for spec in [spec_named(name)] for other in (spec, TRIVIAL)]
    big = SubspaceSpec.from_gaps("big", [1, 2, 3, 5, 7])
    for src, dst in towers:
        clear_cache()
        fresh = _tower_for(src, dst, weight, 10)
        clear_cache()
        _tower_for(big, big, weight, 30)
        assert len(graded._column_tables[weight].cols) > fresh.ncols_at(10)
        late = _tower_for(src, dst, weight, 10)
        assert late.pivots == fresh.pivots, (src, dst)
        assert [late.dim(k) for k in range(-1, 11)] == [fresh.dim(k) for k in range(-1, 11)]
        assert [late.gr_divisible(k) for k in range(11)] == [fresh.gr_divisible(k) for k in range(11)]


def test_clear_cache_empties_the_tables(monkeypatch):
    # the column tables and the principal parts live as long as the towers:
    # a spec's first build divides its conductor once per root, and its
    # builds at other weights or targets divide nothing
    divisions = []
    divmod_ = graded.poly_divmod
    monkeypatch.setattr(graded, "poly_divmod", lambda p, t: divisions.append(t) or divmod_(p, t))
    mixed = catalog_get("mixed")
    clear_cache()
    hom_dims(mixed, mixed, W11, 8)
    once = len(divisions)
    assert once == (mixed.conductor.degree() + 1) * len(mixed.points)
    hom_dims(mixed, mixed, W21, 8)
    hom_dims(mixed, TRIVIAL, W11, 8)
    assert len(divisions) == once
    assert graded._column_tables and graded._principal_part_cache and graded._tower_cache
    clear_cache()
    assert not graded._column_tables and not graded._principal_part_cache and not graded._tower_cache
    hom_dims(mixed, mixed, W11, 8)
    assert len(divisions) == 2 * once


# ---------------------------------------------------------------------------
# the staircase: a tower's free columns are its leading monomials
# ---------------------------------------------------------------------------

# every gap set with largest gap at most 6, 0 allowed as a gap
GAP_SETS_0_6 = [tuple(g for g in range(7) if mask >> g & 1) for mask in range(1, 128)]


def conjugate(parts: list[int]) -> list[int]:
    return [sum(1 for p in parts if p > j) for j in range(max(parts, default=0))]


def staircase(tower, k: int) -> set[tuple[int, int]]:
    """The (a, b) of the free columns of tower up to level k, read from its
    column table and its pivots."""
    cols, pivots = tower.columns.cols, set(tower.pivots)
    return {cols[j] for j in range(tower.ncols_at(k)) if j not in pivots}


def outside_diagram(shift: int, parts: list[int], top: int) -> set[tuple[int, int]]:
    """The x^a xi^b of degree <= top in x^shift times the monomial ideal
    whose complement is the diagram of parts, row b holding parts[b] boxes."""
    return {(a, b) for a, b in monomial_basis(W11, top) if a - shift >= (parts[b] if b < len(parts) else 0)}


def test_gap_set_staircases_are_wilsons_partition():
    # the module's leading monomials are x^r J_lambda, r the number of gaps,
    # the dual's x^(deg g - r) J_(lambda^T), and the module's sequence fits
    # shift -r and constant |lambda| = n: read from the cached pivots, with
    # no basis and no new reduction
    for gaps in GAP_SETS_0_6:
        spec = SubspaceSpec.from_gaps(None, gaps)
        r, deg_g = len(gaps), gaps[-1] + 1
        level = 2 * deg_g + 4
        parts = wilson_partition(gaps)
        module = _tower_for(TRIVIAL, spec, W11, level)
        assert staircase(module, level) == outside_diagram(r, parts, level), gaps
        dual = _tower_for(spec, TRIVIAL, W11, level)
        assert staircase(dual, level) == outside_diagram(deg_g - r, conjugate(parts), level + deg_g), gaps
        module_fit = chern_number(spec, 2 * deg_g + 6)
        assert (module_fit.shift_a, module_fit.n) == (-r, sum(parts)), gaps


def test_every_small_gap_set_end_tower_is_the_closed_form():
    # ROADMAP item 4's tier-1 table: the End tower of every gap set with
    # largest gap <= 6 at five weights, each built from one-term jets only
    # (t^s and the principal parts x^-(gamma + 1)), against the closed form
    # at every level from -1, and p_w at the top against 2n.  The top level
    # (w1 + w2) deg(g) + 4 is 2 deg(g) + 4 at (1,1); p_w reaches 2n later at
    # a larger weight (at (2,3), gaps (4, 5) read 15 at level 16, not 16)
    clear_cache()
    for gaps in GAP_SETS_0_6:
        spec = SubspaceSpec.from_gaps(None, gaps)
        n = chern_number(spec, 2 * (gaps[-1] + 1) + 6).n
        for w in [(1, 1), (1, 2), (2, 1), (2, 3), (3, 1)]:
            kmax = sum(w) * (gaps[-1] + 1) + 4
            dims = hom_dims(spec, spec, Weight(*w), kmax, kmin=-1)
            assert dims == gap_hom_dims(gaps, gaps, *w, kmax), (gaps, w)
            assert dim_A(Weight(*w), kmax) - dims[-1] == 2 * n, (gaps, w)


# ---------------------------------------------------------------------------
# leading monomials across towers
# ---------------------------------------------------------------------------

def ideal_part(tower, k: int, shift: int) -> set[tuple[int, int]]:
    """The staircase of tower up to level k divided by x^shift: what is read
    of a monomial ideal J, so every x-exponent there is at least shift."""
    monomials = staircase(tower, k)
    assert min(a for a, _ in monomials) >= shift
    return {(a - shift, b) for a, b in monomials}


def module_ideal(spec: SubspaceSpec, weight: Weight, top: int) -> set[tuple[int, int]]:
    """J of spec: its module's leading monomials up to degree top over x^r,
    r the number of normalised conditions."""
    return ideal_part(_tower_for(TRIVIAL, spec, weight, top), top, len(spec.functionals))


def dual_ideal(spec: SubspaceSpec, weight: Weight, k: int) -> set[tuple[int, int]]:
    """J' of spec: its dual's leading monomials up to level k (numerator
    degree k + w1 deg(g)) over x^(deg g - r)."""
    return ideal_part(_tower_for(spec, TRIVIAL, weight, k), k, spec.conductor.degree() - len(spec.functionals))


def test_hom_leading_monomials_contain_the_module_times_the_dual():
    # Hom(V1, V2) contains M2 N1, M2 the module of V2 and N1 = Hom(V1, C[x])
    # the dual of V1, and gr A is commutative, so leading monomials
    # multiply: Hom's free columns contain x^(r2 + deg g1 - r1) J2 J1',
    # read off three towers built apart, over every ordered catalog pair
    clear_cache()
    k = 12
    for weight in (W11, Weight(2, 3)):
        for src in catalog():
            g1, r1 = src.conductor.degree(), len(src.functionals)
            top = k + weight.w1 * g1  # of the numerators of Hom and the dual
            dual = dual_ideal(src, weight, k)
            for dst in catalog():
                module = module_ideal(dst, weight, top)
                shift = len(dst.functionals) + g1 - r1
                products = {(a1 + a2 + shift, b1 + b2) for a1, b1 in module for a2, b2 in dual}
                hom = staircase(_tower_for(src, dst, weight, k), k)
                assert {(a, b) for a, b in products if weight.w1 * a + weight.w2 * b <= top} <= hom, \
                    (src.name, dst.name, weight)


def colength(monomials: set[tuple[int, int]]) -> float:
    """The number of monomials x^a xi^b outside the ideal the given ones
    generate, inf when that ideal holds no pure power of x or of xi."""
    least = [inf] * (max(b for _, b in monomials) + 1)  # least[b]: the least a at xi^b
    for a, b in monomials:
        least[b] = min(least[b], a)
    boxes = list(accumulate(least, min))  # boxes[b]: the monomials outside in row b
    return sum(boxes) if boxes[-1] == 0 else inf


def test_p_is_at_most_the_colength_of_the_module_times_the_dual():
    # End(V) contains x^deg(g) J J', so with graded inclusion p_w(k) is at
    # most the colength of J_w J'_w; at kmax 20 every J reads its exact
    # x-shift, and J J' is of finite colength
    clear_cache()
    kmax = 20
    for spec in catalog():
        for weight in DEFAULT_WEIGHTS:
            module = module_ideal(spec, weight, kmax + weight.w1 * spec.conductor.degree())
            dual = dual_ideal(spec, weight, kmax)
            assert min(a for a, _ in module) == min(a for a, _ in dual) == 0, (spec.name, weight)
            bound = colength({(a1 + a2, b1 + b2) for a1, b1 in module for a2, b2 in dual})
            assert lm_invariant(spec, weight, kmax).p_D <= bound < inf, (spec.name, weight)


# ---------------------------------------------------------------------------
# graded pieces and symbols
# ---------------------------------------------------------------------------

def test_gr_symbol_dimensions_telescope():
    cusp = catalog_get("cusp")
    for k in range(0, 5):
        syms = gr_symbol_space(cusp, cusp, W11, k)
        assert len(syms) == len(hom_piece(cusp, cusp, W11, k)) - len(hom_piece(cusp, cusp, W11, k - 1))


def test_gr_symbols_of_the_cusp_identity_level():
    cusp = catalog_get("cusp")
    syms = gr_symbol_space(cusp, cusp, W11, 0)
    assert len(syms) == 1
    assert str(syms[0]) == "x^2"
    assert min(a for (a, _), _ in syms[0].items()) == 2


def test_gr_symbols_of_the_cusp_level_two():
    cusp = catalog_get("cusp")
    syms = gr_symbol_space(cusp, cusp, W11, 2)
    assert len(syms) == 3
    # the symbol of x^2*d^2 + 2*x*d - 2 must lie in the span
    target = WeylEl({(2, 2): Fraction(1)})
    keys = sorted({key for s in (*syms, target) for key, _ in s.items()})
    idx = {key: j for j, key in enumerate(keys)}
    red = RowReducer(len(keys))
    for s in syms:
        red.add_row(_coeff_row(s.items(), idx))
    assert red.rank == 3
    assert not red.add_row(_coeff_row(target.items(), idx))


def test_gr_symbols_of_the_trivial_subspace_level_one():
    triv = catalog_get("trivial")
    syms = gr_symbol_space(triv, triv, W11, 1)
    assert [s.items() for s in syms] == [
        [((1, 0), Fraction(1))],
        [((0, 1), Fraction(1))],
    ]


def test_gr_symbols_are_homogeneous():
    spec = catalog_get("gaps-1-2")
    for k in range(0, 5):
        syms = gr_symbol_space(spec, spec, W11, k)
        target = k + spec.conductor.degree()
        for sym in syms:
            assert all(a + b == target for (a, b), _ in sym_terms(sym))


def sym_terms(sym):
    return list(sym.items())


def test_gr_symbol_space_is_the_new_part_of_the_nested_bases():
    # one build at level k gives the symbols of the basis vectors that
    # hom_piece adds from level k-1 to level k; (2,1) stops at k = 2 to keep
    # the test under two seconds
    specs = [*catalog(), EXTRA_SPECS["half-cusp"], EXTRA_SPECS["off-zero-pair"]]
    for src in specs:
        for dst in specs:
            for weight, kmax in ((W11, 3), (W21, 2)):
                bases = [hom_piece(src, dst, weight, k) for k in range(-1, kmax + 1)]
                for k in range(kmax + 1):
                    top = k + weight.w1 * src.conductor.degree()
                    new = bases[k + 1][len(bases[k]):]
                    assert gr_symbol_space(src, dst, weight, k) == tuple(
                        u.top_component(weight, top) for u in new), (src.name, dst.name, weight, k)


def test_gr_inclusion_on_sample():
    assert gr_inclusion_check(catalog_get("cusp"), Weight(1, 2), 3)
    for name in ("trivial", "cusp", "gaps-1-2-3", "mixed"):
        spec = catalog_get(name)
        assert all(gr_inclusion_check(spec, W11, k) for k in range(7))
        assert all(gr_inclusion_check(spec, W21, k) for k in range(5))


def test_gr_divisible_matches_symbol_reference():
    # the RREF reader against gr_symbol_space over every ordered pair of
    # catalog specs and two specs with no point at 0; the cross-hom pairs
    # (src != dst) give real False cases
    specs = [*catalog(), EXTRA_SPECS["half-cusp"], EXTRA_SPECS["off-zero-pair"]]
    verdicts = []
    for src in specs:
        for dst in specs:
            gdeg = src.conductor.degree()
            for weight in (W11, W21, Weight(1, 2)):
                for k in range(6):
                    symbols = gr_symbol_space(src, dst, weight, k)
                    expected = all(a >= gdeg for sym in symbols for (a, _), _ in sym.items())
                    got = _tower_for(src, dst, weight, k).gr_divisible(k)
                    assert got == expected, (src.name, dst.name, weight, k)
                    verdicts.append(got)
    assert True in verdicts and False in verdicts

"""Metamorphic relations of the engine, checked on random multi-point specs.

No oracle here: each test runs lmtool twice, on a spec and on a transformed
spec whose answer is known to be related, so the checks need no sympy and
reach far past the catalog.

  * locality -- n and p_D are sums of local terms over the points of V
    (Wilson 1998; Berest-Wilson 2002), so a spec has the n and p_D of the
    sum of its single-point parts;
  * scaling -- x -> L x, d -> d / L keeps every weighted filtration, so the
    hom dimensions do not move.  With L the lcm of the point denominators
    every point becomes an integer, and the rows kept at a point c != c0
    are carried to c0 by the offset p/q = c - c0 with q = 1 instead of
    q != 1.
"""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from lmtool.graded import _tower_for, hom_dims, module_dims
from lmtool.invariants import DEFAULT_WEIGHTS, W11, chern_number, lm_invariant
from lmtool.subspace import SubspaceSpec, parse_spec

POINTS = ("0", "1", "-1", "2", "1/2", "-1/3", "3/2", "-2/3")
COEFFS = (1, -1, 2, -3, Fraction(1, 2))


@st.composite
def spec_points(draw, count):
    """``count`` distinct points, each with one or two functionals: a top
    order of 0..2 and random lower-order terms, as (c, [[(order, coeff)]])."""
    points = draw(st.lists(st.sampled_from(POINTS), min_size=count, max_size=count, unique=True))
    out = []
    for c in points:
        fns = []
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            top = draw(st.integers(min_value=0, max_value=2))
            terms = [(o, draw(st.sampled_from(COEFFS))) for o in range(top) if draw(st.booleans())]
            fns.append(terms + [(top, draw(st.sampled_from(COEFFS)))])
        out.append((Fraction(c), fns))
    return out


def build(points, scale: int = 1) -> SubspaceSpec:
    """The conditions spec, with every point c moved to scale*c: the image of
    V under f -> g, g(x) = f(x / scale).  As f^(o)(c) = scale^o g^(o)(scale*c),
    the order-o coefficient is multiplied by scale^o."""
    return parse_spec({"kind": "conditions", "points": [
        {"c": str(scale * c),
         "functionals": [[{"order": o, "coeff": str(Fraction(v) * scale ** o)} for o, v in fn]
                         for fn in fns]}
        for c, fns in points]})


@given(spec_points(2))
@settings(max_examples=20, deadline=None)
def test_invariants_are_sums_over_points(points):
    kmax = 16
    whole = build(points)
    parts = [build([p]) for p in points]
    assert chern_number(whole, kmax).n == sum(chern_number(v, kmax).n for v in parts)
    assert lm_invariant(whole, W11, kmax).p_D == sum(lm_invariant(v, W11, kmax).p_D for v in parts)


@given(spec_points(2), spec_points(1))
@settings(max_examples=20, deadline=None)
def test_dimensions_are_scaling_invariant(points1, points2):
    kmax = 10
    scale = lcm(*(c.denominator for c, _ in points1 + points2))
    v1, v2 = build(points1), build(points2)
    u1, u2 = build(points1, scale), build(points2, scale)
    assert all(c.denominator == 1 for c in u1.points + u2.points)
    trivial = SubspaceSpec.trivial()
    for weight in DEFAULT_WEIGHTS:
        assert module_dims(v1, weight, kmax) == module_dims(u1, weight, kmax), weight
        for s1, d1, s2, d2 in [(v1, v1, u1, u1), (v1, v2, u1, u2), (v2, v1, u2, u1)]:
            assert hom_dims(s1, d1, weight, kmax) == hom_dims(s2, d2, weight, kmax), weight
        for s1, d1, s2, d2 in [(trivial, v1, trivial, u1), (v1, v1, u1, u1), (v1, v2, u1, u2)]:
            # each column (x - c0)^a d^b goes to a multiple of the column
            # (x - L c0)^a d^b, so the column-prefix spans, hence the
            # pivots, match; a cached tower may run past kmax
            t1, t2 = _tower_for(s1, d1, weight, kmax), _tower_for(s2, d2, weight, kmax)
            n = t1.ncols_at(kmax)
            assert [j for j in t1.pivots if j < n] == [j for j in t2.pivots if j < n], weight

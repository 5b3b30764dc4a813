"""Condition subspaces: functionals, conductors, local kernels, and the JSON parser."""

import json
import re
import time
from fractions import Fraction
from math import factorial, gcd, lcm
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lmtool.linalg import Poly
from lmtool.subspace import (
    RATIONAL_DIGIT_LIMIT,
    Functional,
    SpecError,
    SubspaceSpec,
    parse_spec,
)
import pins
from reference import frac, functional_sympy, in_subspace_sympy, parse_poly, poly_to_sympy

X = sympy.Symbol("x")

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)


@st.composite
def functionals(draw):
    point = draw(rationals)
    n = draw(st.integers(min_value=1, max_value=3))
    orders = draw(st.lists(st.integers(min_value=0, max_value=4),
                           min_size=n, max_size=n, unique=True))
    coeffs = draw(st.lists(rationals.filter(bool), min_size=n, max_size=n))
    return Functional(point, tuple(zip(orders, coeffs)))


# -- functionals -------------------------------------------------------------------

def test_functional_merges_terms():
    fn = Functional(Fraction(0), ((1, Fraction(2)), (1, Fraction(-1)), (0, Fraction(3))))
    assert fn.terms == ((0, Fraction(3)), (1, Fraction(1)))
    assert fn.order == 1
    assert Functional(1, ((2, 3),)) == Functional(Fraction(1), ((2, Fraction(3)),))


def test_functional_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        Functional(Fraction(0), ())
    with pytest.raises(ValueError):
        Functional(Fraction(0), ((1, Fraction(1)), (1, Fraction(-1))))
    with pytest.raises(ValueError):
        Functional(Fraction(0), ((-1, Fraction(1)),))


@pytest.mark.parametrize("make,args", [
    (SubspaceSpec.from_gaps, ("x", [1.7, 3.2])),
    (SubspaceSpec.from_gaps, ("x", [True])),
    (Functional, (Fraction(0), ((1.5, 1),))),
    (Functional, (Fraction(0), ((True, 1),))),
    (Functional, (Fraction(0), ((1, 0.1),))),
    (Functional, (Fraction(0), ((1, True),))),
    (Functional, (0.5, ((1, 1),))),
    (Functional, (False, ((1, 1),))),
], ids=["float-gap", "bool-gap", "float-order", "bool-order",
        "float-coeff", "bool-coeff", "float-point", "bool-point"])
def test_constructors_reject_non_integers(make, args):
    # rejected, not truncated or rounded: int(1.7) would make gap 1, and
    # Fraction(0.1) is 3602879701896397/36028797018963968
    with pytest.raises(SpecError):
        make(*args)


# -- spec construction ----------------------------------------------------------------

def test_trivial_spec():
    triv = SubspaceSpec.trivial()
    assert triv.conductor == Poly({0: 1})
    assert triv.local_kernel == {}
    assert in_subspace_sympy(triv, poly_to_sympy(parse_poly("x^5 - 3")))


def test_cusp_spec_structure():
    cusp = SubspaceSpec.from_gaps("cusp", [1])
    assert cusp.conductor == parse_poly("x^2")
    assert cusp.local_kernel == {0: ((1, 0),)}  # f'(0) = 0: digit 0 free, digit 1 zero
    assert in_subspace_sympy(cusp, poly_to_sympy(parse_poly("x^2 + 7")))
    assert not in_subspace_sympy(cusp, poly_to_sympy(parse_poly("x")))
    assert cusp.warnings == ()


def test_two_point_spec_structure():
    spec = SubspaceSpec(
        "two-point",
        [Functional(Fraction(0), ((1, Fraction(1)),)),
         Functional(Fraction(1), ((1, Fraction(1)),))],
    )
    assert spec.conductor == parse_poly("x^2") * parse_poly("x^2 - 2*x + 1")
    # f'(0) = f'(1) = 0: at each point digit 0 is free and digit 1 is zero
    assert spec.local_kernel == {0: ((1, 0),), 1: ((1, 0),)}


def assert_local_kernel(spec: SubspaceSpec) -> None:
    """At each point c, with m = top order + 1 and r functionals there,
    ``local_kernel[c]``, a local basis of V at c, holds m - r vectors of m
    Taylor digits at c, each killed by every functional at c (applied by
    sympy to the polynomial sum_k w_k (x - c)^k), and independent."""
    assert set(spec.local_kernel) == set(spec.points)
    for c in spec.points:
        at_c = [fn for fn in spec.functionals if fn.point == c]
        m = max(fn.order for fn in at_c) + 1
        kernel = spec.local_kernel[c]
        assert len(kernel) == m - len(at_c), c
        digits = [[sympy.Rational(y.numerator, y.denominator) for y in w] for w in kernel]
        t = sympy.Rational(c.numerator, c.denominator)
        for w in digits:
            assert len(w) == m, c
            f = sum((y * (X - t) ** k for k, y in enumerate(w)), sympy.Integer(0))
            assert all(functional_sympy(fn, f) == 0 for fn in at_c), (c, w)
        assert sympy.Matrix(digits).rank() == len(kernel), c


def test_local_basis_on_catalog():
    from lmtool.catalog import catalog, catalog_get

    for spec in catalog():
        assert_local_kernel(spec)
    # mixed: f''(0) = f'(1) = 0: digits 0 and 1 are free at 0, digit 0 at 1
    assert catalog_get("mixed").local_kernel == {0: ((1, 0, 0), (0, 1, 0)), 1: ((1, 0),)}


@given(st.lists(functionals(), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_local_basis_on_random_specs(fns):
    spec = SubspaceSpec("random", fns)
    assert_local_kernel(spec)
    # the conductor is the product of (x - c)^(d_c + 1), d_c the top order at c
    top = {fn.point: max(f.order for f in fns if f.point == fn.point) for fn in fns}
    expected = sympy.prod([(X - frac(c)) ** (d + 1) for c, d in top.items()])
    assert sympy.expand(poly_to_sympy(spec.conductor) - expected) == 0


def test_gap_warning_for_non_semigroup():
    spec = SubspaceSpec.from_gaps("odd", [2])
    assert spec.warnings  # 1 + 1 = 2 is a gap, complement not closed
    assert SubspaceSpec.from_gaps("ok", [1, 2]).warnings == ()


def test_conductor_limit_comes_before_any_work():
    # the cost of a spec grows with its conductor degree, so each way to
    # build one refuses a degree above the limit before doing any of it
    document = json.dumps({"kind": "monomial", "gaps": list(range(10 ** 6))})
    builds = {
        "gap 5000": lambda: SubspaceSpec.from_gaps("g", [5000]),
        "order 10**6": lambda: SubspaceSpec("f", [Functional(Fraction(0), ((10 ** 6, Fraction(1)),))]),
        "10**6 gaps": lambda: parse_spec(document),
    }
    for what, build in builds.items():
        t0 = time.perf_counter()
        with pytest.raises(SpecError, match=r"^conductor degree \d+ is above the limit of 64$"):
            build()
        assert time.perf_counter() - t0 < 1.0, what
    assert SubspaceSpec.from_gaps("g", [63]).conductor.degree() == 64


def test_rational_digit_limit():
    # row reduction slows with the size of the numbers, so a point or a
    # coefficient, and a sum of like orders, is held to 100 digits above
    # and below; the limit itself is admitted
    assert RATIONAL_DIGIT_LIMIT == 100
    top = 10 ** 100 - 1
    assert Functional(Fraction(1, top), ((1, Fraction(top, 7)),)).point == Fraction(1, top)
    refused = {
        "numerator": lambda: Functional(0, ((1, 10 ** 100),)),
        "denominator": lambda: Functional(0, ((1, Fraction(1, 10 ** 100)),)),
        "point": lambda: Functional(Fraction(-(10 ** 100), 3), ((1, 1),)),
        "sum": lambda: Functional(0, ((1, Fraction(1, 10 ** 60)), (1, Fraction(1, 3 ** 126)))),
        "parsed": lambda: parse_spec({"kind": "conditions", "points": [
            {"c": "1/" + "9" * 4000, "functionals": [[{"order": 0, "coeff": 1}]]}]}),
    }
    for what, build in refused.items():
        t0 = time.perf_counter()
        with pytest.raises(SpecError, match="above the limit of 100 digits$"):
            build()
        assert time.perf_counter() - t0 < 1.0, what


def test_parse_refuses_a_name_that_is_not_printable():
    # reports print the name as it is: a newline in it would forge a line
    for name in ("a\nk,dim_A", "tab\there", "\x1b[2J", "\u2028"):
        with pytest.raises(SpecError, match="must be printable"):
            parse_spec({"kind": "monomial", "name": name, "gaps": [1]})
    assert parse_spec({"kind": "monomial", "name": "Spitze ü", "gaps": [1]}).name == "Spitze ü"


def test_every_spec_refuses_a_name_that_could_forge_a_line():
    # a spec built in Python passes through SubspaceSpec.__init__ as a
    # parsed one does, so neither can print a stray line in a report
    fn = Functional(Fraction(0), ((1, Fraction(1)),))
    builds = {
        "from_gaps": lambda name: SubspaceSpec.from_gaps(name, [1]),
        "SubspaceSpec": lambda name: SubspaceSpec(name, [fn]),
        "parse_spec": lambda name: parse_spec({"kind": "monomial", "name": name, "gaps": [1]}),
    }
    for what, build in builds.items():
        with pytest.raises(SpecError, match=r"^spec 'name' must be printable, got 'a\\nk,dim_A'$"):
            build("a\nk,dim_A")
        with pytest.raises(SpecError, match=r"^spec 'name' must be a string$"):
            build(123)
        assert build("Spitze ü").name == "Spitze ü", what


def test_digit_rows_are_the_scaled_normalised_functionals():
    # each normalised functional, in order, scaled by the lcm of its
    # denominators, its order-o coefficient times o!, divided by the gcd of
    # those: the rows a tower reads, a gap functional's as (o, 1)
    for spec in pins.pinned_specs():
        want: dict = {}
        for fn in spec.functionals:
            scale = lcm(*(coeff.denominator for _, coeff in fn.terms))
            row = [(o, int(coeff * scale) * factorial(o)) for o, coeff in fn.terms]
            content = gcd(*(v for _, v in row))
            want.setdefault(fn.point, []).append(tuple((o, v // content) for o, v in row))
        assert spec.digit_rows == {c: tuple(rows) for c, rows in want.items()}, spec.name
        assert all(type(v) is int for rows in spec.digit_rows.values() for row in rows for _, v in row)
    assert SubspaceSpec.from_gaps(None, [1, 3]).digit_rows == {0: (((1, 1),), ((3, 1),))}


def test_equality_ignores_presentation():
    a = Functional(Fraction(0), ((1, Fraction(1)),))
    b = Functional(Fraction(0), ((1, Fraction(2)),))  # scaled
    s1 = SubspaceSpec("s1", [a])
    s2 = SubspaceSpec("s2", [b])
    assert s1 == s2
    assert hash(s1) == hash(s2)


@given(st.lists(functionals(), min_size=1, max_size=4),
       st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3).filter(bool))
@settings(max_examples=50, deadline=None)
def test_equal_specs_hash_equal(fns, scale):
    # the cached hash is that of the normalized functionals, so a spec
    # written in another order and scale hashes, and looks up, as the same
    other = [Functional(fn.point, tuple((o, scale * c) for o, c in fn.terms)) for fn in reversed(fns)]
    s1 = SubspaceSpec("s1", fns)
    s2 = SubspaceSpec("s2", other)
    assert s1 == s2
    assert hash(s1) == hash(s2) == hash(s1.functionals)
    assert {s1: "found"}[s2] == "found"


def test_spec_hash_is_computed_once(monkeypatch):
    # the towers are cached by spec, so every lookup hashes two specs: the
    # functionals are hashed when the spec is built, and never again
    calls = []
    functional_hash = Functional.__hash__

    def counted(fn):
        calls.append(fn)
        return functional_hash(fn)

    monkeypatch.setattr(Functional, "__hash__", counted)
    spec = SubspaceSpec.from_gaps("g", [1, 3])
    built = len(calls)
    assert built
    for _ in range(3):
        hash(spec)
    assert len(calls) == built


def test_equality_merges_redundant_functionals():
    a = Functional(Fraction(0), ((1, Fraction(1)),))
    c = Functional(Fraction(0), ((1, Fraction(1)), (0, Fraction(1))))
    s1 = SubspaceSpec("s1", [a, c])
    s2 = SubspaceSpec(
        "s2",
        [Functional(Fraction(0), ((0, Fraction(1)),)), a],
    )
    assert s1 == s2


# -- the parser -------------------------------------------------------------------------

def test_parse_monomial_document():
    spec = parse_spec('{"kind": "monomial", "name": "cusp", "gaps": [1]}')
    assert spec.name == "cusp"
    assert spec.gaps == (1,)
    assert spec.conductor == parse_poly("x^2")


def test_parse_conditions_document():
    doc = {
        "kind": "conditions",
        "points": [
            {"c": "0", "functionals": [[{"order": 1, "coeff": "1"}]]},
            {"c": "1/2", "functionals": [[{"order": 0, "coeff": "2"},
                                          {"order": 1, "coeff": "-1"}]]},
        ],
    }
    spec = parse_spec(doc)
    assert spec.points == (Fraction(0), Fraction(1, 2))
    assert len(spec.functionals) == 2
    f = parse_poly("x^2")  # f'(0)=0; 2*f(1/2)-f'(1/2) = 1/2 - 1 != 0
    assert not in_subspace_sympy(spec, poly_to_sympy(f))


def test_parse_synthesizes_names():
    assert parse_spec('{"kind": "monomial", "gaps": [1, 2]}').name == "gaps-1-2"
    assert parse_spec('{"kind": "monomial", "gaps": []}').name == "trivial"


def test_parse_merges_duplicate_points():
    doc = {
        "kind": "conditions",
        "points": [
            {"c": 0, "functionals": [[{"order": 1, "coeff": 1}]]},
            {"c": 0, "functionals": [[{"order": 2, "coeff": 1}]]},
        ],
    }
    spec = parse_spec(doc)
    assert spec.points == (Fraction(0),)
    assert len(spec.functionals) == 2
    assert spec.conductor.degree() == 3


def test_parse_rejects_unknown_keys():
    with pytest.raises(SpecError):
        parse_spec('{"kind": "monomial", "gaps": [1], "extra": true}')
    with pytest.raises(SpecError):
        parse_spec(json.dumps({
            "kind": "conditions",
            "points": [{"c": 0, "functionals": [[{"order": 1, "coeff": 1}]], "x": 1}],
        }))
    with pytest.raises(SpecError):
        parse_spec(json.dumps({
            "kind": "conditions",
            "points": [{"c": 0, "functionals": [[{"order": 1, "weight": 1}]]}],
        }))


def test_parse_rejects_keys_that_are_not_strings():
    # a dict passed in, unlike JSON text, may carry keys of any type
    term = {"order": 1, "coeff": "1"}
    for bad, where in (
        ({"kind": "monomial", "gaps": [], 1: 2, "x": 3}, "spec"),
        ({"kind": "conditions", "points": [{"c": "0", "functionals": [[term]], None: 1}]}, "point"),
        ({"kind": "conditions", "points": [{"c": "0", "functionals": [[{**term, (1,): 0, "y": 0}]]}]},
         "term"),
    ):
        with pytest.raises(SpecError, match=f"unknown keys in {where}"):
            parse_spec(bad)


def test_parse_rejects_malformed_documents():
    for bad in (
        "not json",
        '{"kind": "nope"}',
        '{"kind": "monomial", "gaps": [-1]}',
        '{"kind": "monomial", "gaps": ["x"]}',
        '{"kind": "conditions", "points": []}',
        json.dumps({"kind": "conditions",
                    "points": [{"c": "1/0", "functionals": [[{"order": 0, "coeff": 1}]]}]}),
        json.dumps({"kind": "conditions",
                    "points": [{"c": 0, "functionals": [[]]}]}),
        "[1, 2]",
        # integers of over 4300 digits, which int() and str() refuse
        '{"kind": "monomial", "gaps": [' + "9" * 5000 + "]}",
        {"kind": "monomial", "gaps": [10 ** 5000]},
    ):
        with pytest.raises(SpecError):
            parse_spec(bad)


# JSON-shaped documents for parse_spec: objects with the keys it reads, each
# value either of the kind it accepts or of any JSON type (bools, floats,
# huge integers, "1/0"), objects with stray keys, and arbitrary JSON
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([10 ** 30, "1/0", "x", "", " 2 ", "1e3", "nan"]),
    st.text(max_size=4),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
orders = st.integers(min_value=0, max_value=4) | st.integers(min_value=-2, max_value=70) | json_scalars
coeffs = st.sampled_from(["0", "1", "-3", "1/2", 2, -1]) | json_scalars
names = st.text(max_size=3) | json_scalars


def mostly(strategy):
    """``strategy`` three times in four, else any JSON value."""
    return st.one_of(strategy, strategy, strategy, json_values)


def objects(required, optional=None):
    """Objects with the ``required`` keys, some ``optional`` ones and
    perhaps a stray key."""
    stray = st.one_of(st.just({}), st.just({}), st.just({}),
                      st.dictionaries(st.sampled_from(["extra", "weight"]), json_values, min_size=1, max_size=1))
    return st.builds(lambda known, more: {**known, **more},
                     st.fixed_dictionaries(required, optional=optional or {}), stray)


def lists_of(strategy):
    return mostly(st.lists(strategy, min_size=1, max_size=3) | st.just([]))


terms = mostly(objects({"order": orders, "coeff": coeffs}))
points = mostly(objects({"c": coeffs, "functionals": lists_of(lists_of(terms))}))
json_documents = st.one_of(
    objects({"kind": st.just("monomial"), "gaps": lists_of(orders)}, {"name": names}),
    objects({"kind": st.just("conditions"), "points": lists_of(points)}, {"name": names}),
    objects({}, {"kind": json_values, "name": names, "gaps": json_values, "points": json_values}),
    json_values,
)


@given(json_documents, st.booleans())
@settings(max_examples=200, deadline=None)
def test_parse_spec_returns_a_spec_or_raises_spec_error(doc, as_text):
    try:
        spec = parse_spec(json.dumps(doc) if as_text else doc)
    except SpecError:
        return
    assert isinstance(spec, SubspaceSpec)


def test_parse_round_trips_catalog_documents():
    from lmtool.catalog import catalog

    for spec in catalog():
        if spec.gaps is not None:
            doc = {"kind": "monomial", "name": spec.name, "gaps": list(spec.gaps)}
        else:
            doc = {
                "kind": "conditions",
                "name": spec.name,
                "points": [
                    {
                        "c": str(fn.point),
                        "functionals": [
                            [{"order": e, "coeff": str(c)} for e, c in fn.terms]
                        ],
                    }
                    for fn in spec.functionals
                ],
            }
        again = parse_spec(json.dumps(doc))
        assert again == spec
        assert again.name == spec.name


def test_readme_spec_examples_parse():
    from lmtool.catalog import catalog_get

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    specs = [parse_spec(block) for block in blocks]
    assert specs == [catalog_get("cusp"), catalog_get("two-point")]
    assert [s.name for s in specs] == ["cusp", "two-point"]

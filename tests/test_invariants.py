"""Hilbert sequences, quadratic fits, and the integer invariants."""

import copy
import json
import pickle
from fractions import Fraction
from math import factorial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import lmtool
from lmtool import graded, invariants
from lmtool.catalog import catalog, catalog_get
from lmtool.cli import report_csv, report_fields, report_text
from lmtool.invariants import (
    DEFAULT_WEIGHTS,
    W11,
    FitResult,
    HilbertSeq,
    NotStabilizedError,
    Report,
    chern_number,
    dual_check,
    fit_euler,
    full_report,
    hilbert_seq,
    lm_invariant,
    relative_invariant,
    telescoping_check,
    verify_lm_chern,
    weight_independence,
    weights_report,
)
from lmtool.subspace import Functional, SubspaceSpec
from lmtool.weyl import Weight
from reference import dim_A, gap_hom_dims, wilson_partition


def seq(values, label="test"):
    return HilbertSeq(label, tuple(values))


# -- hilbert_seq ----------------------------------------------------------------

def test_hilbert_seq_of_module_and_hom():
    cusp = catalog_get("cusp")
    assert hilbert_seq(cusp, 3).values == (0, 0, 2, 5)
    assert hilbert_seq((cusp, cusp), 2).values == (1, 1, 4)


def test_hilbert_seq_validation():
    for source in ("nonsense", "A"):  # A is dim_A, not a Hilbert source
        with pytest.raises(ValueError):
            hilbert_seq(source, 4)


# -- fit_euler --------------------------------------------------------------------

def test_fit_full_quadratic():
    fit = fit_euler(seq([1, 3, 6, 10, 15]))
    assert (fit.shift, fit.constant, fit.window) == (0, 0, (0, 4))


def test_fit_with_shift_and_constant():
    fit = fit_euler(seq([0, 0, 2, 5, 9, 14]))
    assert (fit.shift, fit.constant, fit.window) == (-1, 1, (1, 5))


def test_fit_too_short_window():
    with pytest.raises(NotStabilizedError):
        fit_euler(seq([1, 1, 4, 8]))
    # five values but only a four-entry exact suffix
    with pytest.raises(NotStabilizedError):
        fit_euler(seq([1, 1, 4, 8, 13]))


def test_fit_non_polynomial_tail():
    with pytest.raises(NotStabilizedError, match=r"fits no Euler quadratic \(second difference is not 1\)"):
        fit_euler(seq([0, 1, 2, 3, 4, 5]))  # second difference 0
    with pytest.raises(NotStabilizedError, match=r"sequence of dimensions is not non-decreasing$"):
        fit_euler(seq([5, 4, 3, 2, 1]))  # decreasing


@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=6, max_value=12),
)
def test_fit_recovers_planted_quadratic(shift, constant, k_top):
    values = [(k + shift + 1) * (k + shift + 2) // 2 - constant for k in range(k_top + 1)]
    if any(b < a for a, b in zip(values, values[1:])) or min(values) < 0:
        return
    fit = fit_euler(seq(values))
    assert (fit.shift, fit.constant) == (shift, constant)
    for k in range(fit.window[0], fit.window[1] + 1):
        assert fit.predicted(k) == values[k]


def test_fit_result_reproduces_its_window():
    h = hilbert_seq(catalog_get("gaps-1-2"), 10)
    fit = fit_euler(h)
    for k in range(fit.window[0], fit.window[1] + 1):
        assert fit.predicted(k) == h.values[k]


# -- lm_invariant --------------------------------------------------------------------

def test_lm_trivial():
    assert lm_invariant(catalog_get("trivial"), W11, 8).p_D == 0


def test_lm_cusp():
    res = lm_invariant(catalog_get("cusp"), W11, 8)
    assert res.p_D == 2
    assert res.p_by_weight[0][1] == (0, 2, 2, 2, 2, 2, 2, 2, 2)


def test_lm_cusp_other_weight():
    assert lm_invariant(catalog_get("cusp"), Weight(1, 2), 10).p_D == 2


def test_lm_cusp_lopsided_weight():
    # p_(30,1)(k) settles only from k = 30 * n = 30 on (a kmax of 12 reads a
    # false plateau at 1), and at w2 = 1 the jet walk runs over b up to kmax
    # and beyond
    assert lm_invariant(catalog_get("cusp"), Weight(30, 1), 40).p_D == 2


# the verbs of lmtool.__all__, each called as verb(spec, kmax=kmax)
VERBS_AT_KMAX = {
    "chern_number": chern_number,
    "dual_check": dual_check,
    "full_report": full_report,
    "lm_invariant": lm_invariant,
    "relative_invariant": lambda spec, kmax: relative_invariant(spec, spec, kmax),
    "verify_lm_chern": verify_lm_chern,
}


@pytest.mark.parametrize("verb", sorted(VERBS_AT_KMAX))
def test_every_verb_refuses_kmax_below_4_alike(verb):
    # each verb of lmtool.__all__ refuses as lm_invariant does, not with a
    # fit that has too few values; at kmax 4 none of them refuses
    assert verb in lmtool.__all__
    for kmax in (3, 0, -1):
        with pytest.raises(ValueError, match=r"^kmax must be >= 4$"):
            VERBS_AT_KMAX[verb](catalog_get("cusp"), kmax=kmax)
    VERBS_AT_KMAX[verb](catalog_get("trivial"), kmax=4)


@pytest.mark.parametrize("verb", sorted(VERBS_AT_KMAX))
def test_every_verb_refuses_kmax_above_the_limit_before_any_tower(verb):
    # the CLI's bound is the library's own: one above it is refused before
    # any tower is built, as the CLI refuses --kmax 201
    assert invariants.KMAX_LIMIT == 200
    graded.clear_cache()
    with pytest.raises(ValueError, match=r"^kmax must be <= 200$"):
        VERBS_AT_KMAX[verb](catalog_get("cusp"), kmax=201)
    assert graded._tower_cache == {}


def test_weight_above_the_limit_is_refused_before_any_tower():
    # Weight(10**9, 1) once reached monomial_basis with 2*10**9 degrees
    graded.clear_cache()
    with pytest.raises(ValueError, match=r"^weight components must be at most 64, got '65,1'$"):
        lm_invariant(catalog_get("cusp"), Weight(65, 1), 12)
    assert graded._tower_cache == {}


# -- chern_number ----------------------------------------------------------------------

def test_chern_catalog_values():
    expected = {
        "trivial": (0, 0),
        "cusp": (1, -1),
        "gaps-1-2": (2, -2),
        "gaps-1-3": (3, -2),
        "gaps-1-2-3": (3, -3),
        "two-point": (2, -2),
        "mixed": (3, -2),
    }
    for spec in catalog():
        res = chern_number(spec)
        assert (res.n, res.shift_a) == expected[spec.name], spec.name


def test_negative_chern_is_reported(monkeypatch):
    # a module sequence that fits (k+1)(k+2)/2 - c with c = -1
    values = [(k + 1) * (k + 2) // 2 + 1 for k in range(8)]
    monkeypatch.setattr(invariants, "module_dims", lambda spec, weight, kmax: values[:kmax + 1])
    with pytest.raises(NotStabilizedError, match=r"^cusp: fit constant -1 is negative$"):
        chern_number(catalog_get("cusp"), 7)


# -- identity checks ----------------------------------------------------------------------

def test_verify_cusp():
    r = verify_lm_chern(catalog_get("cusp"))
    assert r.n == 1 and r.p_D == 2
    assert r.verdicts == {"t2": True}
    assert r.d_fit == (0, 2)
    assert r.ok


def test_verify_whole_catalog():
    for spec in catalog():
        r = verify_lm_chern(spec)
        assert r.ok, spec.name
        assert r.p_D == 2 * r.n
        assert r.d_fit[0] == 0 and r.d_fit[1] == r.p_D


def test_relative_examples():
    triv, cusp = catalog_get("trivial"), catalog_get("cusp")
    r = relative_invariant(triv, triv)
    assert (r.p_12, r.shift_a, r.ok) == (0, 0, True)
    r = relative_invariant(cusp, cusp)
    assert (r.p_12, r.shift_a, r.ok) == (2, 0, True)
    r = relative_invariant(cusp, triv)
    assert (r.p_12, r.n_1, r.n_2, r.ok) == (1, 1, 0, True)


GAP_SETS_0_3 = [tuple(g for g in range(4) if mask >> g & 1) for mask in range(16)]


def test_relative_matches_gap_set_closed_form():
    # every ordered pair of gap sets in {0,1,2,3}, past the onset of both:
    # the hom sequence is the closed form's, p_12 is the sum of the two
    # Wilson partitions' sizes, and the shift is |G1| - |G2|
    for g1 in GAP_SETS_0_3:
        for g2 in GAP_SETS_0_3:
            m = max(g1 + g2, default=-1) + 1
            kmax = 2 * m + 6
            r = relative_invariant(SubspaceSpec.from_gaps("src", g1), SubspaceSpec.from_gaps("dst", g2), kmax)
            assert r.hilbert_hom == tuple(gap_hom_dims(g1, g2, 1, 1, kmax)[1:]), (g1, g2)
            assert r.verdicts == {"relative": True}, (g1, g2)
            assert r.p_12 == sum(wilson_partition(g1)) + sum(wilson_partition(g2)), (g1, g2)
            assert r.shift_a == len(g1) - len(g2), (g1, g2)


def test_relative_of_self_equals_lm():
    for name in ("cusp", "gaps-1-2", "two-point"):
        spec = catalog_get(name)
        rel = relative_invariant(spec, spec)
        assert rel.shift_a == 0
        assert rel.p_12 == lm_invariant(spec).p_D


def test_dual_catalog():
    for spec in catalog():
        res = dual_check(spec)
        assert res.ok, spec.name
        assert res.dual_constant == res.n


def test_weight_independence_examples():
    triv = catalog_get("trivial")
    r = weight_independence(triv, (W11, Weight(2, 3)), 10)
    assert r.ok and all(v == 0 for _, v in r.values)
    r = weight_independence(catalog_get("cusp"), (W11, Weight(1, 2), Weight(2, 1)), 12)
    assert r.ok and all(v == 2 for _, v in r.values)
    with pytest.raises(ValueError):
        weight_independence(triv, (W11,), 8)


def test_telescoping_examples():
    assert telescoping_check(catalog_get("trivial"), W11, 6)
    assert telescoping_check(catalog_get("cusp"), W11, 6)
    assert telescoping_check(catalog_get("cusp"), Weight(2, 1), 6)


# -- closed form for n ----------------------------------------------------------

def closed_form_n(functionals) -> int:
    """n = sum_c (sum_i gamma_i - m(m-1)/2) over the local valuation gaps
    gamma_1..gamma_m at each point c of the V the functionals cut out
    (Wilson; Berest-Wilson).  They need not be independent or normalized.

    Near c an element of V is free beyond its d-jet (d the top order there)
    and the jet f_0..f_d only has to satisfy the functionals at c, which read
    it through the matrix M[fn][o] = coeff_o * o!.  Valuation e is attained
    by some f with f_0 = .. = f_(e-1) = 0 and f_e = 1, which exists exactly
    when column e of M lies in the span of the columns after it.
    """
    n = 0
    for c in {fn.point for fn in functionals}:
        fns = [fn for fn in functionals if fn.point == c]
        d = max(fn.order for fn in fns)
        m = sympy.zeros(len(fns), d + 1)
        for i, fn in enumerate(fns):
            for o, coeff in fn.terms:
                m[i, o] = sympy.Rational(coeff.numerator, coeff.denominator) * factorial(o)
        ranks = [m[:, e:].rank() for e in range(d + 1)] + [0]
        gaps = [e for e in range(d + 1) if ranks[e] > ranks[e + 1]]
        n += sum(gaps) - len(gaps) * (len(gaps) - 1) // 2
    return n


def _conditions(name, *points):
    """A spec from (c, [functional, ...]) pairs, a functional as {order: coeff}."""
    return SubspaceSpec(name, [
        Functional(Fraction(c), tuple(terms.items())) for c, fns in points for terms in fns
    ])


CLOSED_FORM_LITERALS = [
    (_conditions("d1+d2", (0, [{1: 1, 2: 1}])), 2),
    (_conditions("d0+d1", (0, [{0: 1, 1: 1}])), 1),
    (_conditions("d1+2d3", (0, [{1: 1, 3: 2}])), 3),
    (_conditions("d1 at 0, d2-d3 at 1/2", (0, [{1: 1}]), ("1/2", [{2: 1, 3: -1}])), 4),
]


@pytest.mark.parametrize("spec,n", CLOSED_FORM_LITERALS, ids=lambda v: getattr(v, "name", None))
def test_closed_form_n_literals(spec, n):
    assert closed_form_n(spec.functionals) == n
    assert chern_number(spec, 14).n == n
    assert lm_invariant(spec, W11, 14).p_D == 2 * n


def test_closed_form_n_on_catalog():
    for spec in catalog():
        assert chern_number(spec, 14).n == closed_form_n(spec.functionals), spec.name


ORACLE_POINTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 3)]


@st.composite
def mixed_order_specs(draw):
    """1-2 points, conductor degree <= 5, functionals mixing derivative
    orders; the spec and its functionals as drawn, before normalization."""
    points = draw(st.lists(st.sampled_from(ORACLE_POINTS), min_size=1, max_size=2, unique=True))
    budget = 5
    fns = []
    for i, c in enumerate(points):
        top = draw(st.integers(min_value=0, max_value=budget - (len(points) - 1 - i) - 1))
        budget -= top + 1
        for _ in range(draw(st.integers(min_value=1, max_value=top + 1))):
            coeffs = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=top + 1, max_size=top + 1))
            if not any(coeffs):
                coeffs[top] = 1
            fns.append(Functional(c, tuple((o, Fraction(v)) for o, v in enumerate(coeffs) if v)))
    return SubspaceSpec("random", fns), fns


@given(mixed_order_specs())
@settings(max_examples=120, deadline=None)
def test_engine_n_matches_closed_form(case):
    spec, drawn = case
    assert spec.conductor.degree() <= 5
    n = closed_form_n(drawn)
    assert chern_number(spec, 16).n == n
    assert lm_invariant(spec, W11, 16).p_D == 2 * n


@given(st.sampled_from([s.name for s in catalog()]),
       st.sampled_from(DEFAULT_WEIGHTS))
@settings(max_examples=20, deadline=None)
def test_codimension_is_monotone(name, weight):
    spec = catalog_get(name)
    res = lm_invariant(spec, weight, 12)
    p = res.p_by_weight[0][1]
    assert all(b >= a for a, b in zip(p, p[1:]))


# -- reports ---------------------------------------------------------------------------------

def counting_reads(monkeypatch):
    """Patch the two tower reads invariants makes; return the list of
    (kind, source) each call appends."""
    calls = []
    module_dims, hom_dims = invariants.module_dims, invariants.hom_dims

    def counted_module_dims(spec, *args, **kwargs):
        calls.append(("module", spec.name))
        return module_dims(spec, *args, **kwargs)

    def counted_hom_dims(src, dst, *args, **kwargs):
        calls.append(("hom", src.name, dst.name, args[0]))
        return hom_dims(src, dst, *args, **kwargs)

    monkeypatch.setattr(invariants, "module_dims", counted_module_dims)
    monkeypatch.setattr(invariants, "hom_dims", counted_hom_dims)
    return calls


def test_each_sequence_is_read_once(monkeypatch):
    calls = counting_reads(monkeypatch)
    cusp = catalog_get("cusp")
    full_report(cusp, 12)
    assert calls.count(("module", "cusp")) == 1
    calls.clear()
    verify_lm_chern(cusp, 12)
    assert calls == [("hom", "cusp", "cusp", W11), ("module", "cusp")]


def test_weight_comparisons_refuse_one_distinct_weight_before_any_tower():
    # a repeated weight compares nothing, and full_report counts after it
    # adds (1,1), so (1,1) alone is one weight too
    cusp = catalog_get("cusp")
    for call in (lambda: weights_report(cusp, (W11, W11)), lambda: full_report(cusp, 12, (W11, W11)),
                 lambda: full_report(cusp, 12, (W11,)), lambda: full_report(cusp, 12, ())):
        graded.clear_cache()
        with pytest.raises(ValueError, match="weight independence needs at least two weights"):
            call()
        assert graded._tower_cache == {}


def test_full_report_verdict_keys():
    r = full_report(catalog_get("cusp"))
    assert list(r.verdicts) == ["t2", "dual", "weights", "gr_inclusion", "telescoping"]
    assert r.ok


def test_report_dict_shape():
    r = full_report(catalog_get("cusp"), kmax=12)
    d = report_fields(r)
    assert d["name"] == "cusp"
    assert d["weight"] == [1, 1]
    assert d["hilbert_M"] == [0, 0, 2, 5, 9, 14, 20, 27, 35, 44, 54, 65, 77]
    assert d["n"] == 1 and d["p_D"] == 2 and d["shift_a"] == -1
    assert d["ok"] is True
    assert "elapsed_ms" not in d
    assert "elapsed_ms" in report_fields(r.replace(elapsed_ms=1.0))
    json.dumps(d)  # serializable


def test_report_fields_follow_the_one_table():
    """Every verb's field table is Report.__slots__ in order, restricted to
    the fields it set, with ok right after verdicts."""
    cusp, odd = catalog_get("cusp"), SubspaceSpec.from_gaps(None, [2])  # odd carries a warning
    reports = {
        "chern": chern_number(odd, 8),
        "dual": dual_check(cusp, 8),
        "relative": relative_invariant(odd, cusp, 8),
        "invariant-1": lm_invariant(cusp, Weight(2, 1), 8),
        "invariant-2": weights_report(odd, (W11, Weight(2, 1)), 8),
        "verify": full_report(cusp, 8).replace(elapsed_ms=1.25),
    }
    for verb, r in reports.items():
        want = [key for key in Report.__slots__ if getattr(r, key) not in (None, ())]
        want.insert(want.index("verdicts") + 1, "ok")
        assert list(report_fields(r)) == want, verb
    assert "warnings" in report_fields(reports["chern"])
    assert report_fields(reports["verify"])["elapsed_ms"] == 1.25
    with pytest.raises(TypeError, match="bogus"):
        Report(name="x", kmax=4, bogus=1)


def test_records_take_each_field_once():
    with pytest.raises(TypeError, match="missing"):
        Report(name="x")
    with pytest.raises(TypeError, match="shift"):
        FitResult(0, 1, (0, 4), shift=2)
    with pytest.raises(TypeError):
        FitResult(0, 1, (0, 4), 5)
    with pytest.raises(TypeError, match="values"):
        HilbertSeq("x")
    assert FitResult(0, 1, window=(0, 4)) == FitResult(shift=0, constant=1, window=(0, 4))
    r = Report(name="x", kmax=4)
    assert (r.weight, dict(r.verdicts), r.warnings, r.n, r.ok) == (W11, {}, (), None, True)


def test_report_is_frozen_and_does_not_hash():
    r = full_report(catalog_get("cusp"), 8)
    with pytest.raises(TypeError):
        r.verdicts["t2"] = False
    with pytest.raises(TypeError, match="unhashable"):
        hash(r)
    verdicts = {"t2": True}
    r = Report(name="x", kmax=4, verdicts=verdicts)
    verdicts["t2"] = False  # the report holds a copy
    assert r.ok and r.verdicts == {"t2": True}
    assert r.replace(n=1).verdicts == r.verdicts


def test_report_replace_leaves_the_original():
    r = chern_number(catalog_get("cusp"))
    timed = r.replace(elapsed_ms=1.0)
    assert (r.elapsed_ms, timed.elapsed_ms) == (None, 1.0)


# one instance of each immutable record type, and one of its fields
RECORDS = {
    "Weight": (lambda: Weight(1, 2), "w1"),
    "Functional": (lambda: Functional(Fraction(0), ((1, Fraction(1)),)), "terms"),
    "SubspaceSpec": (lambda: catalog_get("mixed"), "functionals"),
    "HilbertSeq": (lambda: seq([0, 1]), "values"),
    "FitResult": (lambda: FitResult(0, 1, (0, 4)), "constant"),
    "WeightIndependenceResult": (
        lambda: weight_independence(catalog_get("trivial"), (W11, Weight(2, 1)), 6), "ok"),
    "Report": (lambda: chern_number(catalog_get("cusp")), "n"),
}


@pytest.mark.parametrize("make, field", RECORDS.values(), ids=RECORDS)
def test_record_fields_cannot_be_assigned(make, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("make, field", RECORDS.values(), ids=RECORDS)
def test_records_survive_pickle_and_copy(make, field):
    record = make()
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert copied == record


def test_report_verdicts_recomputable_from_sequences():
    r = full_report(catalog_get("gaps-1-2"))
    d = report_fields(r)
    module_fit = fit_euler(seq(d["hilbert_M"]))
    assert d["verdicts"]["t2"] == (
        d["p_D"] == 2 * module_fit.constant
        and fit_euler(seq(d["hilbert_D"])).shift == 0
    )
    dual_fit = fit_euler(seq(d["hilbert_dual"]))
    assert d["verdicts"]["dual"] == (dual_fit.constant == module_fit.constant)
    tails = {p[-1] for p in d["p_by_weight"].values()}
    assert d["verdicts"]["weights"] == (len(tails) == 1)


def test_report_csv_columns():
    r = full_report(catalog_get("cusp"), kmax=6)
    table = report_csv(report_fields(r))
    lines = table.strip().split("\n")
    assert lines[0] == "k,dim_A,dim_M,dim_D,p_k"
    assert len(lines) == 8
    row = lines[3].split(",")  # k = 2
    assert row == ["2", "6", "2", "4", "2"]
    for line in lines[1:]:
        k, a, m, dd, p = (int(v) for v in line.split(","))
        assert a == dim_A(W11, k)
        assert p == a - dd


def test_report_text_mentions_verdicts():
    text = report_text(report_fields(full_report(catalog_get("cusp"))))
    assert "p_D: 2" in text
    assert "n: 1" in text
    assert "t2=true" in text
    assert text.endswith("ok: true\n")

"""Acceptance gate: nine criteria, one printed PASS/FAIL line each.

They are numbered 01-08 and 10; the package has no operator product, so
there is no algebra-property criterion 09.

Every check is an exact integer statement -- no tolerances anywhere.  The
timed criteria clear the tower cache first so budgets measure real work.
Lines are printed with capture disabled so they stay visible in a normal
pytest run.
"""

import time

import pytest

from lmtool.catalog import catalog, catalog_get
from lmtool.graded import clear_cache, column_counts, gr_inclusion_check, hom_piece
from lmtool.invariants import (
    HilbertSeq,
    dual_check,
    fit_euler,
    hilbert_seq,
    lm_invariant,
    relative_invariant,
    telescoping_check,
    verify_lm_chern,
    weight_independence,
)
from lmtool.weyl import Weight

W11 = Weight(1, 1)
WEIGHTS = (Weight(1, 1), Weight(1, 2), Weight(2, 1), Weight(2, 3))


@pytest.fixture(name="report")
def _report_fixture(capfd):
    def _report(num: int, description: str, ok: bool) -> None:
        line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {description}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def test_criterion_01_trivial_module(report):
    clear_cache()
    t0 = time.perf_counter()
    exact = column_counts(W11, 12) == [(k + 1) * (k + 2) // 2 for k in range(13)]
    r = verify_lm_chern(catalog_get("trivial"))
    elapsed = time.perf_counter() - t0
    ok = exact and r.n == 0 and r.p_D == 0 and r.ok and elapsed < 1.0
    report(1, f"trivial module: A-sequence exact, n=0, p_D=0 ({elapsed:.2f}s < 1s)", ok)


def test_criterion_02_cusp_fixture(report):
    clear_cache()
    cusp = catalog_get("cusp")
    t0 = time.perf_counter()
    trivial = catalog_get("trivial")
    m2 = hom_piece(trivial, cusp, W11, 2)
    m3 = hom_piece(trivial, cusp, W11, 3)
    d1 = hom_piece(cusp, cusp, W11, 1)
    d2 = hom_piece(cusp, cusp, W11, 2)
    fit = fit_euler(hilbert_seq(cusp, 12))
    r = verify_lm_chern(cusp, 12)
    elapsed = time.perf_counter() - t0
    ok = (
        [str(u) for u in m2] == ["x^2", "x*d - 1"]
        and len(m3) == 5
        and len(d1) == 1
        and len(d2) == 4
        and "x^2*d^2 + 2*x*d - 2" in {str(u) for u in d2}
        and str(cusp.conductor) == "x^2"
        and (fit.shift, fit.constant) == (-1, 1)
        and r.p_D == 2
        and r.verdicts["t2"]
        and elapsed < 5.0
    )
    report(2, f"cusp fixture: bases, fit (-1,1), p_D=2, identity true ({elapsed:.2f}s < 5s)", ok)


def test_criterion_03_catalog_identity(report):
    ok = True
    worst = 0.0
    for spec in catalog():
        clear_cache()
        t0 = time.perf_counter()
        r = verify_lm_chern(spec, 12)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        ok = ok and r.ok and r.p_D == 2 * r.n and elapsed <= 60.0
    report(3, f"catalog-wide p_D = 2n at kmax=12 (worst spec {worst:.2f}s <= 60s)", ok)


def test_criterion_04_weight_independence(report):
    ok = all(weight_independence(spec, WEIGHTS, 12).ok for spec in catalog())
    report(4, "p_D identical across weights (1,1),(1,2),(2,1),(2,3)", ok)


def test_criterion_05_gr_inclusion(report):
    ok = all(
        gr_inclusion_check(spec, w, k)
        for spec in catalog()
        for w in WEIGHTS
        for k in range(13)
    )
    report(5, "gr-inclusion for all specs, four weights, k <= 12", ok)


def test_criterion_06_duality(report):
    ok = True
    for spec in catalog():
        res = dual_check(spec, 12)
        ok = ok and res.ok and res.dual_constant == res.n
    report(6, "dual fit constant equals n for every catalog spec", ok)


def test_criterion_07_relative_identity(report):
    pairs = [("cusp", "trivial"), ("cusp", "gaps-1-2"), ("two-point", "cusp")]
    ok = True
    for a, b in pairs:
        res = relative_invariant(catalog_get(a), catalog_get(b), 12)
        window = fit_euler(HilbertSeq(res.name, res.hilbert_hom)).window
        ok = ok and res.ok and res.p_12 == res.n_1 + res.n_2
        ok = ok and (window[1] - window[0] + 1) >= 3
    report(7, "p_12 = n_1 + n_2 on the three reference pairs, window >= 3", ok)


def test_criterion_08_telescoping(report):
    ok = all(
        telescoping_check(spec, w, 12)
        for spec in catalog()
        for w in (Weight(1, 1), Weight(2, 1))
    )
    report(8, "telescoping identity at (1,1) and (2,1), k <= 12", ok)


def test_criterion_10_monotone_codimension(report):
    ok = True
    for spec in catalog():
        for w in WEIGHTS:
            p = lm_invariant(spec, w, 12).p_by_weight[0][1]
            ok = ok and all(b >= a for a, b in zip(p, p[1:]))
    report(10, "codimension p(k) non-decreasing for all specs and weights", ok)

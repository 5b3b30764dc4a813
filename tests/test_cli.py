"""Command line behavior: verbs, formats, exit codes, determinism."""

import hashlib
import json

import pytest

from lmtool import cli
from lmtool.invariants import NegativeChernError, Report, fit_euler, HilbertSeq
from lmtool.weyl import Weight

W11 = Weight(1, 1)

CUSP_DOC = '{"kind": "monomial", "name": "cusp", "gaps": [1]}'

# sha256 of the stdout of `lmtool verify --kmax 12` over the whole catalog
CATALOG_KMAX12_SHA256 = "c9e878d29fa842d3ead699fe18d44bff9d59fde7bad7546780baff02760b1d14"


@pytest.fixture
def cusp_file(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(CUSP_DOC)
    return str(path)


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- worked end-to-end examples ------------------------------------------------------

def test_verify_cusp_json(capsys, cusp_file):
    code, out, err = run(capsys, "verify", "--spec", cusp_file, "--kmax", "12")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 1
    assert report["p_D"] == 2
    assert report["ok"] is True
    assert set(report["verdicts"]) == {"t2", "dual", "weights", "gr_inclusion", "telescoping"}


def test_invariant_trivial(capsys, tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text('{"kind": "monomial", "gaps": []}')
    code, out, _ = run(capsys, "invariant", "--spec", str(path),
                       "--weights", "1,1", "--kmax", "8")
    assert code == 0
    assert json.loads(out)["p_D"] == 0


def test_verify_small_kmax_exits_3(capsys, cusp_file):
    code, out, err = run(capsys, "verify", "--spec", cusp_file, "--kmax", "4")
    assert code == 3
    assert out == ""
    assert "kmax" in err


# -- verbs --------------------------------------------------------------------------

def test_chern_verb(capsys):
    code, out, _ = run(capsys, "chern", "--spec", "gaps-1-2")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 2
    assert report["hilbert_M"][:5] == [0, 0, 0, 1, 4]


def test_relative_verb(capsys, cusp_file):
    code, out, _ = run(capsys, "relative", "--spec", cusp_file, "--spec", "trivial")
    assert code == 0
    report = json.loads(out)
    assert report["p_12"] == 1
    assert report["n_1"] == 1 and report["n_2"] == 0
    assert report["verdicts"] == {"relative": True}


def test_dual_verb(capsys):
    code, out, _ = run(capsys, "dual", "--spec", "cusp")
    assert code == 0
    report = json.loads(out)
    assert report["dual_constant"] == 1
    assert report["verdicts"] == {"dual": True}


def test_verify_defaults_to_whole_catalog(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    reports = json.loads(out)
    assert [r["name"] for r in reports] == [
        "trivial", "cusp", "gaps-1-2", "gaps-1-3", "gaps-1-2-3", "two-point", "mixed",
    ]
    assert all(r["ok"] for r in reports)


def test_catalog_verb(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    entries = json.loads(out)
    names = [e["name"] for e in entries]
    assert "cusp" in names and "trivial" in names
    cusp_entry = next(e for e in entries if e["name"] == "cusp")
    assert cusp_entry["gaps"] == [1]


def test_invariant_multi_weight(capsys):
    code, out, _ = run(capsys, "invariant", "--spec", "cusp",
                       "--weights", "1,1;2,1")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {"weights": True}
    assert set(report["p_by_weight"]) == {"(1,1)", "(2,1)"}


# -- formats ---------------------------------------------------------------------------

def test_csv_format(capsys, cusp_file):
    code, out, _ = run(capsys, "verify", "--spec", cusp_file, "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,dim_A,dim_M,dim_D,p_k"
    assert lines[1] == "0,1,0,1,0"


def test_text_format(capsys):
    code, out, _ = run(capsys, "verify", "--spec", "cusp", "--format", "text")
    assert code == 0
    assert "p_D: 2" in out
    assert "ok: true" in out


def test_timing_flag_gates_elapsed(capsys):
    code, plain, _ = run(capsys, "chern", "--spec", "cusp")
    assert "elapsed_ms" not in plain
    code, timed, _ = run(capsys, "chern", "--spec", "cusp", "--timing")
    assert code == 0
    assert "elapsed_ms" in timed


def test_out_writes_file(capsys, tmp_path, cusp_file):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--spec", cusp_file, "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["ok"] is True


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--spec", "cusp")
    _, second, _ = run(capsys, "verify", "--spec", "cusp")
    assert first == second
    code, out, _ = run(capsys, "verify", "--kmax", "12")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_KMAX12_SHA256


def test_emitted_report_revalidates(capsys):
    _, out, _ = run(capsys, "verify", "--spec", "gaps-1-3")
    report = json.loads(out)

    def fit(values):
        return fit_euler(HilbertSeq("x", W11, 0, len(values) - 1, tuple(values)))

    m_fit = fit(report["hilbert_M"])
    d_fit = fit(report["hilbert_D"])
    dual_fit = fit(report["hilbert_dual"])
    p_tails = {p[-1] for p in report["p_by_weight"].values()}
    assert report["verdicts"]["t2"] == (
        report["p_D"] == 2 * m_fit.constant and (d_fit.shift, d_fit.constant) == (0, report["p_D"])
    )
    assert report["verdicts"]["dual"] == (dual_fit.constant == m_fit.constant)
    assert report["verdicts"]["weights"] == (len(p_tails) == 1)
    assert report["n"] == m_fit.constant


# -- exit codes -------------------------------------------------------------------------

def test_usage_errors_exit_2(capsys, cusp_file):
    cases = [
        ["invariant"],                                   # no spec
        ["relative", "--spec", "cusp"],                  # needs two
        ["verify", "--spec", "no-such-spec"],
        ["invariant", "--spec", "cusp", "--kmax", "3"],
        ["invariant", "--spec", "cusp", "--weights", "0,1"],
        ["invariant", "--spec", "cusp", "--weights", "1"],
        ["chern", "--spec", "cusp", "--weights", "2,1"],
        ["verify", "--spec", cusp_file, "--weights", "1,1"],
        ["verify", "--spec", "cusp", "--weights", "1,1;1,1"],   # repeated weight
        ["no-such-verb"],
        [],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""


def test_malformed_spec_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "monomial", "gaps": [1], "bogus": 1}')
    code, out, err = run(capsys, "verify", "--spec", str(bad))
    assert code == 2
    assert "bogus" in err


def test_verdict_failure_exits_1(capsys, monkeypatch):
    broken = Report(
        name="cusp", kmax=12,
        hilbert_M=(0, 0, 2, 5, 9, 14),
        verdicts={"t2": False},
    )
    monkeypatch.setattr(cli, "full_report", lambda *a, **k: broken)
    code, out, err = run(capsys, "verify", "--spec", "cusp")
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert "t2" in err
    assert "hilbert_M" in err


def test_negative_chern_exits_3(capsys, monkeypatch):
    def negative(*args, **kwargs):
        raise NegativeChernError("cusp: fit constant -1 is negative")

    monkeypatch.setattr(cli, "full_report", negative)
    code, out, err = run(capsys, "verify", "--spec", "cusp")
    assert code == 3
    assert out == ""
    assert "lmtool: not stabilized: cusp: fit constant -1 is negative" in err
    assert "raise --kmax" in err
    assert "Traceback" not in err


def test_unwritable_out_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "catalog", "--out", str(tmp_path / "nope" / "x.json"))
    assert code == 2
    assert "cannot write" in err

"""Command line behavior: verbs, formats, exit codes, determinism."""

import ast
import csv
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lmtool
from lmtool import cli, graded
from lmtool.catalog import catalog_get
from lmtool.invariants import NotStabilizedError, Report, fit_euler, HilbertSeq
from lmtool.linalg import RowReducer
from lmtool.subspace import parse_spec
from lmtool.weyl import Weight
import pins

W11 = Weight(1, 1)

CUSP_DOC = '{"kind": "monomial", "name": "cusp", "gaps": [1]}'

@pytest.fixture
def cusp_file(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(CUSP_DOC)
    return str(path)


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_pinned(capsys, argv):
    """Run a case of pins.CLI_CASES in-process against its pinned outcome."""
    code, out, err = run(capsys, *argv)
    assert pins.outcome(code, out.encode(), err) == pins.CLI_CASES[argv]


# -- worked end-to-end examples ------------------------------------------------------

def test_verify_cusp_json(capsys, cusp_file):
    code, out, err = run(capsys, "verify", "--spec", cusp_file, "--kmax", "12")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 1
    assert report["p_D"] == 2
    assert report["ok"] is True
    assert set(report["verdicts"]) == {"t2", "dual", "weights", "gr_inclusion", "telescoping"}


def test_verify_reads_weight_1_1_that_p_D_comes_from(capsys):
    # p_D is read at (1,1): weights that agree with each other but not with
    # it fail the weights verdict, as a list that holds (1,1) does
    code, out, err = run(capsys, "verify", "--spec", "cusp", "--weights", "30,1;31,1", "--kmax", "12")
    report = json.loads(out)
    assert code == 1
    assert report["p_D"] == 2
    assert list(report["p_by_weight"]) == ["(1,1)", "(30,1)", "(31,1)"]
    assert report["verdicts"]["weights"] is False
    assert "verdict failure for cusp: weights" in err


def test_verify_puts_weight_1_1_first_when_the_list_lacks_it(capsys):
    code, out, _ = run(capsys, "verify", "--spec", "cusp", "--weights", "1,2;2,1", "--kmax", "12")
    report = json.loads(out)
    assert code == 0
    assert list(report["p_by_weight"]) == ["(1,1)", "(1,2)", "(2,1)"]
    assert report["weights"] == [[1, 1], [1, 2], [2, 1]]
    assert report["ok"] is True


def test_verify_takes_one_weight_besides_1_1(capsys):
    code, out, _ = run(capsys, "verify", "--spec", "cusp", "--weights", "2,1", "--kmax", "12")
    report = json.loads(out)
    assert code == 0
    assert list(report["p_by_weight"]) == ["(1,1)", "(2,1)"]
    assert report["ok"] is True


def test_verify_refuses_weight_1_1_alone(capsys):
    code, out, err = run(capsys, "verify", "--spec", "cusp", "--weights", "1,1")
    assert (code, out) == (2, "")
    assert err == "lmtool: error: verify always reads weight 1,1; give a weight to compare with it\n"


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


@pytest.mark.parametrize("argv", sorted(pins.FAILURE_STDERR), ids=" ".join)
def test_failure_stderr_is_pinned(capsys, argv):
    assert_pinned(capsys, argv)


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


@pytest.mark.parametrize("fmt", sorted(pins.CATALOG_SHA256))
def test_catalog_digest(capsys, fmt):
    assert_pinned(capsys, ("catalog", "--format", fmt))


def test_invariant_multi_weight(capsys):
    code, out, _ = run(capsys, "invariant", "--spec", "cusp",
                       "--weights", "1,1;2,1")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {"weights": True}
    assert set(report["p_by_weight"]) == {"(1,1)", "(2,1)"}


def test_invariant_multi_weight_csv_has_p_columns(capsys):
    code, out, _ = run(capsys, "invariant", "--spec", "cusp", "--weights", "1,2;1,1",
                       "--kmax", "6", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["k", "dim_A", "p(1,2)", "p(1,1)"]
    assert [row[2:] for row in rows[1:4]] == [["0", "0"], ["1", "2"], ["2", "2"]]


# -- formats ---------------------------------------------------------------------------

def test_csv_format(capsys, cusp_file):
    code, out, _ = run(capsys, "verify", "--spec", cusp_file, "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,dim_A,dim_M,dim_D,p_k"
    assert lines[1] == "0,1,0,1,0"


def test_readme_quick_start_is_pinned(capsys):
    assert pins.README_ARGV == ("verify", "--spec", "cusp", "--format", "text")
    assert_pinned(capsys, pins.README_ARGV)


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


@pytest.mark.parametrize("verb", sorted(pins.VERB_ARGS))
def test_timing_measures_every_verb(capsys, verb):
    code, out, _ = run(capsys, *pins.VERB_ARGS[verb], "--kmax", "8", "--timing")
    assert code == 0
    reports = json.loads(out)
    assert all(r["elapsed_ms"] > 0 for r in (reports if isinstance(reports, list) else [reports]))


@pytest.mark.parametrize("verb,fmt", sorted(pins.VERB_SHA256))
def test_timing_adds_only_elapsed(capsys, verb, fmt):
    # --timing leaves CSV as it is and adds only each report's elapsed_ms
    # field (JSON) or line (text): with those taken out, the output is the pinned one
    code, out, err = run(capsys, *pins.verb_argv(verb, fmt), "--timing")
    assert (code, err) == (0, "")
    if fmt == "json":
        reports = json.loads(out)
        for report in reports if isinstance(reports, list) else [reports]:
            del report["elapsed_ms"]
        out = json.dumps(reports, indent=2) + "\n"
    elif fmt == "text":
        lines = out.splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith("elapsed_ms: ")]
        assert len(lines) - len(kept) == (1 if verb == "relative" else pins.VERB_ARGS[verb].count("--spec"))
        out = "".join(kept)
    assert hashlib.sha256(out.encode()).hexdigest() == pins.VERB_SHA256[verb, fmt]


def test_towers_built_at_the_kmax_asked(capsys):
    graded.clear_cache()
    code, _, _ = run(capsys, "chern", "--spec", "cusp", "--kmax", "8")
    assert code == 0
    assert graded._tower_cache
    assert {tower.kmax for tower in graded._tower_cache.values()} == {8}


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
    assert_pinned(capsys, ("verify", "--kmax", "12"))


def test_catalog_verify_kmax20_digest(capsys):
    assert_pinned(capsys, ("verify", "--kmax", "20"))


def test_kmax20_digest_agrees_with_the_benchmark():
    # the benchmark checks the same stdout against its own copy of the digest
    assert pins.CATALOG_KMAX20_SHA256 == pins.workloads.CATALOG_STDOUT_SHA256


@pytest.mark.parametrize("argv", sorted(pins.DEEP_SHA256), ids=" ".join)
def test_deep_verify_digest(capsys, argv):
    assert_pinned(capsys, argv)


def test_cached_towers_hold_no_reducer(capsys):
    # a cached tower keeps its pivots, not the reducer that found them: no
    # value in the cache holds a RowReducer or an echelon row ({column: int})
    graded.clear_cache()
    code, _, _ = run(capsys, "verify", "--kmax", "20")
    assert code == 0
    towers = list(graded._tower_cache.values())
    assert towers
    for tower in towers:
        assert not hasattr(tower, "__dict__")
        for slot in type(tower).__slots__:
            value = getattr(tower, slot)
            items = value if isinstance(value, (tuple, list, set, frozenset)) else (value,)
            assert not any(isinstance(v, (RowReducer, dict, list, tuple)) for v in items), slot


@pytest.mark.parametrize("verb,fmt", sorted(pins.VERB_SHA256))
def test_output_digest_per_verb_and_format(capsys, verb, fmt):
    assert_pinned(capsys, pins.verb_argv(verb, fmt))


@pytest.mark.parametrize("fmt", sorted(pins.OFF_ZERO_SHA256))
def test_off_zero_verify_digest(capsys, tmp_path, monkeypatch, fmt):
    pins.write_spec_docs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert_pinned(capsys, pins.off_zero_argv(fmt))


@pytest.mark.parametrize("argv", sorted(pins.REFUSED_STDERR), ids=" ".join)
def test_refused_spec_stderr_is_pinned(capsys, tmp_path, monkeypatch, argv):
    pins.write_spec_docs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert_pinned(capsys, argv)


def test_all_exports_resolve():
    missing = [name for name in lmtool.__all__ if not hasattr(lmtool, name)]
    assert missing == []


def test_top_level_names():
    """The top level is the verbs the CLI runs, their inputs and output, the
    one stop error and the catalog; ``catalog`` is the function, which the
    benchmark imports and calls."""
    assert sorted(lmtool.__all__) == sorted([
        "lm_invariant", "chern_number", "relative_invariant", "dual_check", "verify_lm_chern",
        "full_report", "SubspaceSpec", "Functional", "parse_spec", "SpecError", "Weight",
        "DEFAULT_WEIGHTS", "Report", "NotStabilizedError", "catalog", "catalog_get",
        "catalog_names", "__version__",
    ])
    assert callable(lmtool.catalog)


def test_readme_library_use_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {})
    assert capsys.readouterr().out == "2\n1 2 True\n"


def test_bench_wrapped_names_resolve(monkeypatch):
    """Every lmtool name the benchmark's tracer wraps or patches still exists,
    so a deletion that would break `bench/run.py --trace 1` fails here, and a
    traced call through the reference path gives the untraced result with
    its nested span."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    spans = importlib.import_module("spans")
    importlib.import_module("workloads")
    names = [(owner, attr) for owner, attr, _ in spans.WRAPPED] + [(graded, "RowReducer")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in names
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    # gr_symbol_space reads hom_piece through graded's module global, so the
    # tracer records the hom_piece span under the gr_symbol_space span
    cusp = catalog_get("cusp")
    expected = graded.gr_symbol_space(cusp, cusp, Weight(1, 1), 2)
    with spans.Tracer() as tracer:
        assert graded.gr_symbol_space(cusp, cusp, Weight(1, 1), 2) == expected
    outer = [sid for sid, _, name, _, _ in tracer.spans if name == "graded.gr_symbol_space"]
    assert len(outer) == 1
    assert [parent for _, parent, name, _, _ in tracer.spans if name == "graded.hom_piece"] == outer


def imports_outside_stdlib(path: Path) -> set[str]:
    """The top-level modules that path imports by absolute name, other than stdlib."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return {m.split(".")[0] for m in modules} - set(sys.stdlib_module_names)


def test_package_imports_only_stdlib():
    """The package is dependency-free: every import is relative or stdlib."""
    outside = {path.name: imports_outside_stdlib(path) for path in Path(lmtool.__file__).parent.glob("*.py")}
    assert outside and not any(outside.values()), outside


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Every run of the CLI pays its imports: with site-packages hidden,
    nothing but lmtool could load these modules, and lmtool does not."""
    env = dict(os.environ, PYTHONPATH=str(Path(lmtool.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", pins.IMPORT_GUARD],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_pins_import_only_stdlib_lmtool_and_workloads():
    """tests/pins.py runs where nothing is installed: it, and the benchmark
    inputs it reads, import the stdlib and lmtool alone, never a test package."""
    root = Path(__file__).resolve().parent.parent
    assert imports_outside_stdlib(root / "tests" / "pins.py") == {"lmtool", "workloads"}
    assert imports_outside_stdlib(root / "bench" / "workloads.py") == {"lmtool"}


def test_package_modules_use_every_import():
    """No module but ``__init__`` imports a name it never reads: nothing is
    kept importable only for callers outside the package."""
    unused = []
    for path in sorted(Path(lmtool.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]
    assert unused == []


def test_emitted_report_revalidates(capsys):
    _, out, _ = run(capsys, "verify", "--spec", "gaps-1-3")
    report = json.loads(out)

    def fit(values):
        return fit_euler(HilbertSeq("x", tuple(values)))

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
        ["relative", "--spec", "cusp"],                  # needs two
        ["verify", "--spec", "no-such-spec"],
        ["invariant", "--spec", "cusp", "--kmax", "3"],
        ["invariant", "--spec", "cusp", "--weights", "0,1"],
        ["invariant", "--spec", "cusp", "--weights", "1"],
        ["verify", "--spec", cusp_file, "--weights", "1,1"],
        ["verify", "--spec", "cusp", "--weights", "1,1;1,1"],   # repeated weight
        ["catalog", "--timing"],                         # a report-verb flag
        ["no-such-verb"],
        [],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
    messages = {
        ("invariant",): "invariant needs at least one --spec",
        ("chern", "--weights", "1,1"): "chern needs at least one --spec",
        ("dual", "--kmax", "8"): "dual needs at least one --spec",
        ("chern", "--spec", "cusp", "--weights", "2,1"): "chern is pinned to weight 1,1",
        ("dual", "--spec", "cusp", "--weights", "1,2"): "dual is pinned to weight 1,1",
        ("relative", "--spec", "cusp", "--spec", "trivial", "--weights", "2,1"):
            "relative is pinned to weight 1,1",
        ("invariant", "--spec", "cusp", "--weights", ""): "empty weight list",
        ("invariant", "--spec", "cusp", "--weights", "1e3,1"):
            "weight components must be integers, got '1e3,1'",
        ("invariant", "--spec", "cusp", "--weights", "1,1;65,1"):
            "weight components must be at most 64, got '65,1'",
    }
    for argv, message in messages.items():
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"lmtool: error: {message}\n"), argv


def test_kmax_above_bound_exits_2(capsys, monkeypatch):
    def no_towers(*args, **kwargs):
        raise AssertionError("a tower was requested")

    monkeypatch.setattr(cli, "full_report", no_towers)
    monkeypatch.setattr(cli, "chern_number", no_towers)
    code, out, err = run(capsys, "verify", "--spec", "cusp", "--kmax", "100000")
    assert (code, out) == (2, "")
    assert err == "lmtool: error: --kmax must be at most 200\n"
    code, out, err = run(capsys, "chern", "--spec", "cusp", "--kmax", "201")
    assert (code, err) == (2, "lmtool: error: --kmax must be at most 200\n")


@pytest.mark.parametrize("argv,doc,message", [
    (["invariant", "--spec", "cusp", "--weights", "1000000000000,1;1,1", "--kmax", "4"], None,
     "weight components must be at most 64, got '1000000000000,1'"),
    (["invariant", "--spec", "mixed", "--weights", "100,1;1,1", "--kmax", "4"], None,
     "weight components must be at most 64, got '100,1'"),
    (["chern", "--spec"], '{"kind": "monomial", "gaps": [5000]}',
     "{path}: conductor degree 5001 is above the limit of 64"),
    (["chern", "--spec"], '{"kind": "conditions", "points": [{"c": "1/2", "functionals": '
                          '[[{"order": 40, "coeff": 1}]]}, {"c": 2, "functionals": '
                          '[[{"order": 24, "coeff": 1}, {"order": 30, "coeff": 0}]]}]}',
     "{path}: conductor degree 66 is above the limit of 64"),
    (["chern", "--spec"], '{"kind": "conditions", "points": [{"c": "1", "functionals": '
                          '[[{"order": 1, "coeff": "1e10000000"}]]}]}',
     "{path}: not a rational: '1e10000000'"),
    (["verify", "--kmax", "12", "--spec"], json.dumps({"kind": "conditions", "points": [
        {"c": f"{10 ** 800}/3", "functionals": [[{"order": 1, "coeff": str(10 ** 800)}]]},
        {"c": 0, "functionals": [[{"order": 1, "coeff": 1}]]}]}),
     "{path}: coefficient has a numerator or denominator above the limit of 100 digits"),
    # no number here has more than 91 digits, but the RREF rows of the two
    # functionals at 0, scaled to integers, have more than 100
    (["chern", "--spec"], json.dumps({"kind": "conditions", "points": [{"c": 0, "functionals": [
        [{"order": 0, "coeff": str(10 ** 90 + 7)}, {"order": 1, "coeff": 1}, {"order": 2, "coeff": 1}],
        [{"order": 0, "coeff": 1}, {"order": 1, "coeff": str(3 ** 180 + 1)}, {"order": 2, "coeff": 1}]]}]}),
     "{path}: conditions at point 0 row-reduce to a coefficient above the limit of 100 digits"),
], ids=["huge-weight", "weight-100", "gap-5000", "two-point-66", "exponent-coeff", "coeff-800-digits",
        "rref-above-limit"])
def test_runaway_input_exits_2_at_parse(capsys, tmp_path, argv, doc, message):
    if doc is not None:
        path = tmp_path / "runaway.json"
        path.write_text(doc)
        argv = argv + [str(path)]
        message = message.format(path=path)
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out, err) == (2, "", f"lmtool: error: {message}\n")


def test_limits_admit_their_bound():
    assert cli._parse_weights("64,1;1,64") == (Weight(64, 1), Weight(1, 64))
    assert parse_spec('{"kind": "monomial", "gaps": [63]}').conductor.degree() == 64


def test_relative_warnings_name_their_spec(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g2.json").write_text('{"kind": "monomial", "gaps": [2]}')
    (tmp_path / "g3.json").write_text('{"kind": "monomial", "gaps": [3]}')
    warning = "gap complement is not closed under addition; the subspace is not a semigroup algebra"
    code, out, _ = run(capsys, "relative", "--spec", "./g2.json", "--spec", "./g2.json", "--format", "text")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("warning:")] == [
        f"warning: gaps-2: {warning}"]
    code, out, _ = run(capsys, "relative", "--spec", "./g2.json", "--spec", "./g3.json")
    assert code == 0
    assert json.loads(out)["warnings"] == [f"gaps-2: {warning}", f"gaps-3: {warning}"]


def test_builtin_name_wins_over_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cusp").write_text('{"kind": "monomial", "gaps": [1, 2]}')
    code, out, _ = run(capsys, "chern", "--spec", "cusp")
    assert (code, json.loads(out)["n"]) == (0, 1)
    code, out, _ = run(capsys, "chern", "--spec", "./cusp")
    assert (code, json.loads(out)["n"]) == (0, 2)


def test_malformed_spec_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "monomial", "gaps": [1], "bogus": 1}')
    code, out, err = run(capsys, "verify", "--spec", str(bad))
    assert code == 2
    assert "bogus" in err


@pytest.mark.parametrize("doc,message", [
    ('{"kind": "monomial", "gaps": [true]}', "gap must be a non-negative integer, got True"),
    ('{"kind": "conditions", "points": [{"c": true, "functionals": [[{"order": 1, "coeff": 1}]]}]}',
     "not a rational: True"),
    ('{"kind": "conditions", "points": [{"c": 0, "functionals": [[{"order": true, "coeff": 1}]]}]}',
     "derivative order must be a non-negative integer, got True"),
    ('{"kind": "conditions", "points": [{"c": 0, "functionals": [[{"order": 1, "coeff": true}]]}]}',
     "not a rational: True"),
], ids=["gaps", "c", "order", "coeff"])
def test_json_boolean_is_not_a_number(capsys, tmp_path, doc, message):
    path = tmp_path / "bool.json"
    path.write_text(doc)
    code, out, err = run(capsys, "chern", "--spec", str(path))
    assert (code, out, err) == (2, "", f"lmtool: error: {path}: {message}\n")


def test_deeply_nested_spec_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    env = dict(os.environ, PYTHONPATH=str(Path(lmtool.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "lmtool.cli", "chern", "--spec", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"lmtool: error: {path}: invalid JSON: ")
    assert "Traceback" not in proc.stderr


def test_verdict_failure_exits_1(capsys, monkeypatch):
    broken = Report(
        name="cusp", kmax=12,
        hilbert_M=(0, 0, 2, 5, 9, 14),
        hilbert_dual=(2, 5, 9, 14, 20, 27),
        p_by_weight=((W11, (0, 2, 2, 2, 2, 2)), (Weight(2, 1), (0, 1, 2, 2, 2, 2))),
        n=1,
        verdicts={"t2": False, "dual": True, "weights": False},
    )
    monkeypatch.setattr(cli, "full_report", lambda *a, **k: broken)
    code, out, err = run(capsys, "verify", "--spec", "cusp")
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert err == (
        "lmtool: verdict failure for cusp: t2, weights\n"
        "lmtool:   hilbert_M = [0, 0, 2, 5, 9, 14]\n"
        "lmtool:   hilbert_dual = [2, 5, 9, 14, 20, 27]\n"
        "lmtool:   p(1,1) = [0, 2, 2, 2, 2, 2]\n"
        "lmtool:   p(2,1) = [0, 1, 2, 2, 2, 2]\n"
    )


def test_negative_chern_exits_3(capsys, monkeypatch):
    def negative(*args, **kwargs):
        raise NotStabilizedError("cusp: fit constant -1 is negative")

    monkeypatch.setattr(cli, "full_report", negative)
    code, out, err = run(capsys, "verify", "--spec", "cusp")
    assert code == 3
    assert out == ""
    assert "lmtool: not stabilized: cusp: fit constant -1 is negative" in err
    assert "raise --kmax" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--spec", "cusp"],
    ["chern", "--spec", "two-point", "--format", "text"],
])
def test_engine_fault_exits_4(capsys, monkeypatch, argv):
    # a ValueError raised inside the computation is a fault in lmtool, not a
    # usage error: it must not print "lmtool: error:" and exit 2
    def faulty(self):
        min([])

    graded.clear_cache()
    monkeypatch.setattr(graded._Rows, "_add_rows", faulty)
    code, out, err = run(capsys, *argv)
    graded.clear_cache()
    assert (code, out) == (4, "")
    assert err == "lmtool: internal error: ValueError: min() arg is an empty sequence\n"


def test_unwritable_out_exits_2(capsys, tmp_path):
    # the catalog verb and the report verbs write through one path
    for argv in (["catalog"], ["verify", "--spec", "cusp"]):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "nope" / "x.json"))
        assert (code, "cannot write" in err) == (2, True), argv

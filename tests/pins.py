"""Every output and tower pin of lmtool, the import guard, and one check for each.

The arithmetic is exact and the RREF is canonical, so a change to how rows
are built or reduced, or to how reports are rendered, must keep these bytes.
The tests import the tables and functions here and run the CLI cases
in-process.  ``PYTHONPATH=src python -S tests/pins.py`` runs every check
with only the stdlib, ``lmtool`` and ``bench/workloads.py``, each CLI case as
a ``python -m lmtool.cli`` subprocess; it prints one ``ok``/``BAD`` line per
case and exits 1 on any mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import lmtool
from lmtool import graded
from lmtool.catalog import catalog
from lmtool.invariants import DEFAULT_WEIGHTS
from lmtool.linalg import RowReducer
from lmtool.subspace import SubspaceSpec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # bench/ is a directory of scripts, not a package

# -- CLI output ----------------------------------------------------------------

# sha256 of the stdout of `lmtool verify --kmax 12` over the whole catalog
CATALOG_KMAX12_SHA256 = "c9e878d29fa842d3ead699fe18d44bff9d59fde7bad7546780baff02760b1d14"
# ... and of `lmtool verify --kmax 20`, the output the benchmark checks
# against its own copy, workloads.CATALOG_STDOUT_SHA256; main() checks that
# the two agree
CATALOG_KMAX20_SHA256 = "b473bf4471b2dcf1bf45eb3f2ef42921ed94ff268cd8f613603c91e9e4505e9e"
# sha256 of the stdout of deeper verify runs, keyed by their arguments
DEEP_SHA256 = {
    ("verify", "--kmax", "60"): "576b5076514fdbe3cafff4dd162f5e5535a638c5c0d2fd419fb372f450d1c7df",
    ("verify", "--spec", "mixed", "--kmax", "120"):
        "242eb22772c4206f6cbae34e81f10b362fd99645a24c50cd4086cff8b8251cd7",
    ("verify", "--spec", "two-point", "--kmax", "120"):
        "8dcfaffab7a344c240bcac68abb56f03f02e1790c8cd07e37c3473ec8cd181c3",
}

# the exact stderr of runs of each verb below their onset, keyed by their
# arguments; each exits 3 with nothing on stdout.  verify fits the module
# first and refuses the first three; the p-sequence of gaps-1-3 at (1,2) is
# still moving at kmax 7.  relative fits the hom space before either module
FAILURE_STDERR = {
    ("chern", "--spec", "mixed", "--kmax", "6"):
        "lmtool: not stabilized: module(mixed): fit window [3,6] has only 4 entries; raise kmax\n"
        "lmtool: raise --kmax and rerun\n",
    ("dual", "--spec", "gaps-1-2-3", "--kmax", "4"):
        "lmtool: not stabilized: module(gaps-1-2-3): fit window [2,4] has only 3 entries; raise kmax\n"
        "lmtool: raise --kmax and rerun\n",
    ("relative", "--spec", "cusp", "--spec", "two-point", "--kmax", "5"):
        "lmtool: not stabilized: hom(cusp,two-point): fit window [2,5] has only 4 entries; raise kmax\n"
        "lmtool: raise --kmax and rerun\n",
    ("relative", "--spec", "mixed", "--spec", "cusp", "--kmax", "6"):
        "lmtool: not stabilized: module(mixed): fit window [3,6] has only 4 entries; raise kmax\n"
        "lmtool: raise --kmax and rerun\n",
    ("invariant", "--spec", "gaps-1-3", "--kmax", "4"):
        "lmtool: not stabilized: p-sequence for gaps-1-3 at (1,1) still moving: tail (2, 6, 6); raise kmax\n"
        "lmtool: raise --kmax and rerun\n",
    ("invariant", "--spec", "mixed", "--weights", "2,3;1,1", "--kmax", "6"):
        "lmtool: not stabilized: p-sequence for mixed at (2,3) still moving: tail (3, 4, 6); raise kmax\n"
        "lmtool: raise --kmax and rerun\n",
    ("verify", "--spec", "cusp", "--kmax", "4"):
        "lmtool: not stabilized: module(cusp): fit window [1,4] has only 4 entries; raise kmax\n"
        "lmtool: raise --kmax and rerun\n",
    ("verify", "--spec", "two-point", "--kmax", "5"):
        "lmtool: not stabilized: module(two-point): fit window [3,5] has only 3 entries; raise kmax\n"
        "lmtool: raise --kmax and rerun\n",
    ("verify", "--spec", "mixed", "--kmax", "6"):
        "lmtool: not stabilized: module(mixed): fit window [3,6] has only 4 entries; raise kmax\n"
        "lmtool: raise --kmax and rerun\n",
    ("verify", "--spec", "gaps-1-3", "--kmax", "7"):
        "lmtool: not stabilized: p-sequence for gaps-1-3 at (1,2) still moving: tail (5, 6, 6); raise kmax\n"
        "lmtool: raise --kmax and rerun\n",
}

# sha256 of stdout for each verb and format at --kmax 8; a rendering change
# that moves a single byte shows up here
VERB_ARGS = {
    "chern": ["chern", "--spec", "cusp", "--spec", "mixed"],
    "invariant-1": ["invariant", "--spec", "cusp", "--spec", "two-point"],
    "invariant-2": ["invariant", "--spec", "cusp", "--spec", "two-point", "--weights", "1,1;2,1"],
    "dual": ["dual", "--spec", "cusp", "--spec", "mixed"],
    "relative": ["relative", "--spec", "cusp", "--spec", "two-point"],
    "verify": ["verify", "--spec", "cusp", "--spec", "gaps-1-2"],
}
VERB_SHA256 = {
    ("chern", "json"): "1e0d17b9b0c8e064cc459fee00e4e8f25df430c774d0940e3a490a0dca941ed2",
    ("chern", "csv"): "ee08c2bcf655f62c760102f89797d604cd6a3ad63a0fe89ab1f4fcf0c1d68335",
    ("chern", "text"): "b810359fe3a6638540ff2e8f0ab0ab0d52390f5c13210a31c7ff1d4cfa0d4c57",
    ("invariant-1", "json"): "3af8bfda4f0cc285e186cbc2fb2641ab25c464c12f17e54e2acdd696eaf87183",
    ("invariant-1", "csv"): "81d0f1efddaa38572b71a2ca3f880e48cf1da1739199943e9c3c82213074f437",
    ("invariant-1", "text"): "e5f16188a569b28ccf59d9ec799f86c5ca26d12eda24307fcdcf27f550110031",
    ("invariant-2", "json"): "21956f7ef68bd743f1763277176f7047097fd45c508ead8fffc0f6059e4a8cbd",
    ("invariant-2", "csv"): "06d95d3b7b257560fa4ae52c6aad5eafd8883688819a40a1fd112e29d5bfb682",
    ("invariant-2", "text"): "c87ae4d85b2893c396d0a2298c6fbeac7f7d6174e6f2e5b9c5e06cb151a3180f",
    ("dual", "json"): "023ffa82cd278f808ab40b52a1aecbf086c2959e9c73320e9f8f2a668308c12f",
    ("dual", "csv"): "6d78c8ce7594954345cd6c1e4b1230a149379b38943280a4f33ace0e7047267b",
    ("dual", "text"): "f12a858458e2e6ad374f13b48c3483edbc7e609e5948d967c83a4c6b2784ca8e",
    ("relative", "json"): "5dcd05e3d66457d6781528daeb19c8d904a0835c9526b182f4b84175bb1605ab",
    ("relative", "csv"): "779d72d6df1396c20fa736e1a2a72a6f53c381445045791b854b695916225a1d",
    ("relative", "text"): "6dbcb397fbc6c3453f751d87e0cd504560b147613ebd9dc6e1d61058bf9ccc39",
    ("verify", "json"): "5148dcb9767dab2e74320504c764fa675ab3473ff2d7a2daea8e5609e0988255",
    ("verify", "csv"): "1b93c88d60fc80b0799eae27d4c8819dbcacc512bbea13d138b77bfc70812e74",
    ("verify", "text"): "54f4fb8978ef373e379095e091ed68eb9691f8fdce5b5d3565f7741535d47035",
}

# sha256 of stdout of `lmtool catalog --format FMT`
CATALOG_SHA256 = {
    "json": "3f29fec7d23da2caf0e02dabc54b5a5a7a5827cc6c71fe1815725fe9b41cb2eb",
    "csv": "cf21fbcd300504a6eb688ae0e1aa0eda97e64481a0719536c824ab51a542f2c9",
    "text": "a1585de3dd47899348908ea849baaeaf773fb3b1909685fb5729d03a909984ca",
}

# two conditions specs with no point at 0: f'(1/2) = 0 and
# 2f(1/2) - f^(3)(1/2)/3 = 0, then the same with f'(-1/3) = 0 added
OFF_ZERO_HALF = [{"c": "1/2", "functionals": [
    [{"order": 1, "coeff": 1}],
    [{"order": 0, "coeff": 2}, {"order": 3, "coeff": "-1/3"}]]}]
OFF_ZERO_DOCS = {
    "off-zero-1": {"kind": "conditions", "name": "off-zero-1", "points": OFF_ZERO_HALF},
    "off-zero-2": {"kind": "conditions", "name": "off-zero-2", "points": OFF_ZERO_HALF + [
        {"c": "-1/3", "functionals": [[{"order": 1, "coeff": 1}]]}]},
}
# sha256 of stdout of `lmtool verify --spec off-zero-1 --spec off-zero-2 --kmax 12`
OFF_ZERO_SHA256 = {
    "json": "802a19aea06e1aade4132141e817557b419779ebd68ff814bcd6cd1f44c8305b",
    "csv": "ff9aeaabd681d61519f751b7f8fc3e93403fa25568a52ade36e831129c4efd76",
    "text": "15dc8fb2120101e174aa62d367bf05490cf6c849434c3861f49ad4b740cedfa0",
}

# two spec files that are refused when read: a name with a control
# character, which would print as a line of its own, and a coefficient of
# 101 digits
REFUSED_DOCS = {
    "forged-name": {"kind": "monomial", "name": "a\nk,dim_A", "gaps": [1]},
    "long-coeff": {"kind": "conditions", "points": [
        {"c": 0, "functionals": [[{"order": 1, "coeff": "1" + "0" * 100}]]}]},
}
# the exact stderr of runs that read them, keyed by their arguments; each
# exits 2 with nothing on stdout
REFUSED_STDERR = {
    ("chern", "--spec", "forged-name.json", "--spec", "cusp", "--format", "csv"):
        "lmtool: error: forged-name.json: spec 'name' must be printable, got 'a\\nk,dim_A'\n",
    ("verify", "--spec", "long-coeff.json", "--kmax", "12"):
        "lmtool: error: long-coeff.json: coefficient has a numerator or denominator "
        "above the limit of 100 digits\n",
}


def write_spec_docs(directory: Path) -> None:
    """Write OFF_ZERO_DOCS and REFUSED_DOCS as the NAME.json files their cases read."""
    for name, doc in {**OFF_ZERO_DOCS, **REFUSED_DOCS}.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))


def verb_argv(verb: str, fmt: str) -> tuple[str, ...]:
    return (*VERB_ARGS[verb], "--kmax", "8", "--format", fmt)


def off_zero_argv(fmt: str) -> tuple[str, ...]:
    return ("verify", "--spec", "off-zero-1.json", "--spec", "off-zero-2.json", "--kmax", "12", "--format", fmt)


def outcome(code: int, stdout: bytes, stderr: str) -> tuple[int, str, str]:
    """What a CLI case pins of a run: exit code, sha256 of stdout, stderr."""
    return code, hashlib.sha256(stdout).hexdigest(), stderr


def readme_quick_start() -> tuple[tuple[str, ...], bytes]:
    """The argv and stdout of the `$ lmtool ...` block under README's
    "Quick start": the command on its first line, its output on the rest."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Quick start\n", 1)[1].split("```sh\n$ lmtool ", 1)[1].split("```", 1)[0]
    command, stdout = block.split("\n", 1)
    return tuple(command.split()), stdout.encode()


# the README quick start is a CLI case too, so the README cannot drift
README_ARGV, README_STDOUT = readme_quick_start()

# every CLI case: argv -> outcome(exit code, stdout, stderr) of its run
CLI_CASES = {
    README_ARGV: outcome(0, README_STDOUT, ""),
    ("verify", "--kmax", "12"): (0, CATALOG_KMAX12_SHA256, ""),
    ("verify", "--kmax", "20"): (0, CATALOG_KMAX20_SHA256, ""),
    **{verb_argv(verb, fmt): (0, want, "") for (verb, fmt), want in VERB_SHA256.items()},
    **{("catalog", "--format", fmt): (0, want, "") for fmt, want in CATALOG_SHA256.items()},
    **{argv: (0, want, "") for argv, want in DEEP_SHA256.items()},
    **{off_zero_argv(fmt): (0, want, "") for fmt, want in OFF_ZERO_SHA256.items()},
    **{argv: outcome(3, b"", stderr) for argv, stderr in FAILURE_STDERR.items()},
    **{argv: outcome(2, b"", stderr) for argv, stderr in REFUSED_STDERR.items()},
}

# -- the pinned towers ---------------------------------------------------------


def pinned_specs() -> list[SubspaceSpec]:
    """The catalog and both benchmark sweep batches at seeds 1-3: 67 specs."""
    return list(catalog()) + [spec for seed in (1, 2, 3)
                              for sweep in (workloads.ConditionsSweep, workloads.MonomialDeep)
                              for spec in sweep(seed).specs]


def pinned_towers() -> list[tuple]:
    """The (src, dst, weight) of every End, module and dual tower of the
    pinned specs at the four default weights: 804 towers."""
    trivial = SubspaceSpec.trivial()
    return [(src, dst, weight) for spec in pinned_specs() for weight in DEFAULT_WEIGHTS
            for src, dst in [(spec, spec), (trivial, spec), (spec, trivial)]]


# What the engine reads of each pinned tower at kmax 12: the sha256 of its
# pivot columns and canonical RREF, written as repr((pivot_cols(), rref
# pivots, rref rows as sorted items)).  Neither depends on which rows encode
# the conditions or in what order they are offered, so any change to the
# row builder must keep this digest.
ECHELON_SHA256 = "54e49cdd7fdf9d91e43df3c1aac53253f78ce9c27def8517969e22fb198fe48a"


def echelon_sha256(towers: list[tuple], reverse: bool) -> str:
    """ECHELON_SHA256 of towers, each built at kmax 12 from an empty cache,
    in their order or in reverse order, and hashed in their order: the
    per-weight column table, grown in another order of degrees, must read
    the same."""
    graded.clear_cache()
    reprs = {}
    for i in reversed(range(len(towers))) if reverse else range(len(towers)):
        reducer = graded._Rows(*towers[i], 12).reducer
        pivots, rows = reducer.rref()
        reprs[i] = repr((reducer.pivot_cols(), pivots, [sorted(r.items()) for r in rows])).encode()
    return hashlib.sha256(b"".join(reprs[i] for i in range(len(towers)))).hexdigest()


# The rows offered to a reducer by the pinned towers at kmax 12: their
# number, the sha256 of the sequence, each row written as
# repr(sorted(row.items())), and the sha256 of those reprs sorted.  The
# builder offers the t^s rows of every point first and then, at each root
# of g, the rows of the principal parts P_w of a basis of the local kernel.
# Rows at c0 go to the tower's reducer and rows at any other point c to a
# reducer of c's own, written in the columns (x - c)^a d^b.  Each row of a
# one-term jet y t^e (every t^s, and a principal part of one term) comes
# without the factor y e^(b1) that all its entries would share, b1 the
# first order it reads (y is 1 on every pinned jet), and a dst functional
# is read through its primitive digit row.  The recording reducer keeps no row, so no row is carried to c0
# here.  The sorted digest pins the rows whatever their order; the sequence
# digest pins this order.
OFFERED_ROWS = 31522
OFFERED_ROWS_SHA256 = "15628ffbed9662ec252f80b60cad1acda78a067058d59c482eb5e0e9084d0bd2"
OFFERED_ROWS_SORTED_SHA256 = "69afa59e9e7f9f50a4e297acd07b6fdfed95a56f0f7e97c4c925250e1c9f96d7"


def offered_rows(towers: list[tuple]) -> tuple[int, str, str]:
    """(OFFERED_ROWS, OFFERED_ROWS_SHA256, OFFERED_ROWS_SORTED_SHA256) of
    towers, each built at kmax 12 by a reducer that records the rows offered
    to it and reduces none of them."""
    offered = []

    class RecordingReducer(RowReducer):
        def add_row(self, entries):
            offered.append(repr(sorted(entries.items())))
            return True

    graded.RowReducer = RecordingReducer
    try:
        for src, dst, weight in towers:
            graded._Rows(src, dst, weight, 12)
    finally:
        graded.RowReducer = RowReducer
    return (len(offered), *(hashlib.sha256("".join(rows).encode()).hexdigest()
                            for rows in (offered, sorted(offered))))


# -- build counts --------------------------------------------------------------

# The towers built and the graded.poly_divmod calls of one pass of each
# benchmark workload at seed 1 from an empty cache, counted as
# bench/spans.py counts them: one tower per call of the name
# graded.RowReducer, one division per call of graded.poly_divmod.  A cache
# that stops hitting (towers, column tables, principal parts) moves them.
# The End build of a spec at (1,1) serves its module read, so
# catalog-verify builds End at four weights and dual (the trivial spec has
# one tower at each weight), conditions-sweep End, and monomial-deep End at
# four weights; with a module build of its own for each spec they were 40,
# 30 and 25 towers.
BUILD_COUNTS = {"catalog-verify": (34, 39), "conditions-sweep": (15, 126), "monomial-deep": (20, 25)}


def build_counts() -> dict[str, tuple[int, int]]:
    """BUILD_COUNTS of this tree: `verify --kmax 20` through cli.run, then
    each sweep's seed-1 batch through its check, each from an empty cache.
    Raises RuntimeError if a pass reports a problem with its results."""
    counts: Counter = Counter()
    reducer, divmod_ = graded.RowReducer, graded.poly_divmod

    def tower_reducer(ncols):  # graded calls the name once per tower it builds
        counts["towers"] += 1
        return reducer(ncols)

    def counted_divmod(p, t):
        counts["divisions"] += 1
        return divmod_(p, t)

    def sweep_pass(sweep):
        return lambda: [problem for spec in sweep.specs for problem in sweep.check(spec)]

    passes = {"catalog-verify": lambda: workloads.catalog_problems(*workloads.run_catalog_in_process()),
              **{name: sweep_pass(workloads.SWEEPS[name](1)) for name in ("conditions-sweep", "monomial-deep")}}
    out = {}
    graded.RowReducer, graded.poly_divmod = tower_reducer, counted_divmod
    try:
        for name, run in passes.items():
            graded.clear_cache()
            counts.clear()
            problems = run()
            if problems:
                raise RuntimeError(f"{name}: {problems}")
            out[name] = (counts["towers"], counts["divisions"])
    finally:
        graded.RowReducer, graded.poly_divmod = reducer, divmod_
    return out


# -- start-up ------------------------------------------------------------------

# Every CLI run pays lmtool's imports, and dataclasses (which loads inspect)
# and typing cost milliseconds of each.  Run as `python -S -c IMPORT_GUARD`,
# with site-packages hidden, only lmtool could load them; it exits 0 and
# prints nothing when lmtool.cli loads none of the three.
IMPORT_GUARD = ("import lmtool.cli, sys; loaded = {'dataclasses', 'inspect', 'typing'} & set(sys.modules); "
                "sys.exit(f'lmtool.cli loads {sorted(loaded)}' if loaded else 0)")


# -- the script ----------------------------------------------------------------


def main() -> int:
    results = []

    def check(what: str, got: object, want: object) -> None:
        results.append(got == want)
        print(f"ok   {what}" if got == want else f"BAD  {what}\n     got  {got}\n     want {want}", flush=True)

    check("CATALOG_KMAX20_SHA256 equals the benchmark's CATALOG_STDOUT_SHA256",
          CATALOG_KMAX20_SHA256, workloads.CATALOG_STDOUT_SHA256)
    towers = pinned_towers()
    check("804 pinned towers", len(towers), 804)
    for reverse in (False, True):
        check(f"ECHELON_SHA256, towers built in {'reverse ' if reverse else ''}order",
              echelon_sha256(towers, reverse), ECHELON_SHA256)
    check("OFFERED_ROWS and both of its digests", offered_rows(towers),
          (OFFERED_ROWS, OFFERED_ROWS_SHA256, OFFERED_ROWS_SORTED_SHA256))
    counted = build_counts()
    for name, want in BUILD_COUNTS.items():
        check(f"BUILD_COUNTS {name}: towers built, poly_divmod calls", counted.get(name), want)
    env = dict(os.environ, PYTHONPATH=str(Path(lmtool.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_GUARD], capture_output=True, text=True, env=env)
    check("IMPORT_GUARD: lmtool.cli loads neither dataclasses, inspect nor typing",
          (proc.returncode, proc.stderr), (0, ""))
    with tempfile.TemporaryDirectory() as cwd:
        write_spec_docs(Path(cwd))
        for argv, want in CLI_CASES.items():
            proc = subprocess.run([sys.executable, "-m", "lmtool.cli", *argv],
                                  capture_output=True, cwd=cwd, env=env)
            check(" ".join(argv), outcome(proc.returncode, proc.stdout, proc.stderr.decode()), want)
    print(f"{sum(results)}/{len(results)} pins match")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Verbs:
  invariant  p_D for one or more specs (per weight when several given)
  chern      second invariant n with its embedding shift
  relative   p_12 for an ordered pair of specs, checked against n_1 + n_2
  dual       fit of Hom(M, A) compared against n
  verify     the full verification suite (defaults to the whole catalog)
  catalog    list the built-in specs

Exit codes: 0 success, 1 an identity verdict failed, 2 usage or parse
error, 3 a sequence did not stabilize (raise --kmax), 4 an exception inside
the computation, which is a fault in lmtool, not in the input (reported in
one line, without a traceback).  Exit 3 is the one stop error of the
verbs, invariants.NotStabilizedError, which a negative fit constant raises
too, since n >= 0 for every V.  A --kmax above invariants.KMAX_LIMIT, a
weight component above weyl.WEIGHT_LIMIT and a spec file whose conductor
degree is above subspace.CONDUCTOR_DEGREE_LIMIT are usage errors; each
bound is the library's own, which the verbs, Weight and SubspaceSpec keep.
A --spec token that names a built-in spec means that spec even if a file of
the same name exists; ./NAME reaches the file.  Reports go to stdout (or
--out); diagnostics go to stderr.  Output is deterministic: timing appears
only under --timing.

This module alone knows the output format.  The verbs return frozen
Reports; report_fields turns one into the ordered field table that JSON,
CSV, text and the stderr diagnostics all read, and _describe is the same
for a catalog entry.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from .catalog import catalog, catalog_get, catalog_names
from .graded import column_counts
from .invariants import (
    DEFAULT_WEIGHTS,
    KMAX_LIMIT,
    W11,
    NotStabilizedError,
    Report,
    chern_number,
    dual_check,
    full_report,
    lm_invariant,
    relative_invariant,
    weights_report,
)
from .linalg import rat_to_str
from .subspace import SpecError, SubspaceSpec, parse_spec
from .weyl import Weight

_VERBS = ("invariant", "chern", "relative", "dual", "verify", "catalog")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmtool",
        description="Exact invariants of ideals of the first Weyl algebra.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _VERBS:
        p = sub.add_parser(verb)
        if verb != "catalog":
            p.add_argument(
                "--spec",
                action="append",
                default=[],
                metavar="PATH|NAME",
                help="built-in spec name or spec JSON file; repeatable. A built-in "
                     "name wins over a file of that name: write ./NAME for the file",
            )
            p.add_argument("--weights", default=None, metavar="W1,W2[;W1,W2...]")
            p.add_argument("--kmax", type=int, default=12,
                           help=f"highest filtration degree, 4..{KMAX_LIMIT} (default 12)")
            p.add_argument("--timing", action="store_true",
                           help="include elapsed_ms in json/text output")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", default=None, metavar="PATH")
    return parser


def _parse_weights(raw: str) -> tuple[Weight, ...]:
    parts = [p for p in raw.split(";") if p.strip()]
    if not parts:
        raise ValueError("empty weight list")
    weights = tuple(Weight.parse(p) for p in parts)
    if len(set(weights)) < len(weights):
        raise ValueError("repeated weight in weight list")
    return weights


def _load_spec(token: str):
    if token in catalog_names():
        return catalog_get(token)
    path = Path(token)
    if path.exists():
        try:
            return parse_spec(path.read_text())
        except (SpecError, OSError, UnicodeDecodeError) as exc:
            raise SpecError(f"{token}: {exc}") from exc
    raise SpecError(f"{token}: no such file and no built-in spec of that name")


# -- output: one ordered field table per report, rendered as JSON, CSV or text

HILBERT_FIELDS = ("hilbert_M", "hilbert_D", "hilbert_dual", "hilbert_hom")


# the converters of the field values that JSON cannot take as they are
_TO_JSON = {
    "weight": lambda w: [w.w1, w.w2],
    "weights": lambda weights: [[w.w1, w.w2] for w in weights],
    "p_by_weight": lambda pairs: {str(w): list(p) for w, p in pairs},
    "d_fit": lambda fit: {"shift": fit[0], "constant": fit[1]},
    "verdicts": dict,
    "warnings": lambda warnings: list(warnings) or None,  # no warning: left out
    "elapsed_ms": lambda ms: round(ms, 3),
}


def report_fields(report: Report) -> dict:
    """The ordered field table that every output format renders: the fields
    of Report.__slots__ in their order, with ok right after verdicts; fields
    a verb did not compute, and elapsed_ms without --timing, are left out."""
    out = {}
    for key in report.__slots__:
        value = getattr(report, key)
        if key in _TO_JSON and value is not None:
            value = _TO_JSON[key](value)
        if value is not None:
            out[key] = list(value) if isinstance(value, tuple) else value
        if key == "verdicts":
            out["ok"] = report.ok
    return out


def report_csv(fields: dict) -> str:
    """Hilbert table of a field table: k, dim_A, dim_M, dim_D, p_k.

    Dual/hom sequences get their own column only when the standard module
    and endomorphism columns are absent (dual and relative runs).  Without
    an End sequence (multi-weight invariant runs) there is one "p(w1,w2)"
    column per weight instead of p_k, quoted because the name has a comma.
    """
    kmax = fields["kmax"]
    dims_A = column_counts(Weight(*fields["weight"]), kmax)
    present = [key for key in HILBERT_FIELDS if key in fields]
    shown = [key for key in present if key in HILBERT_FIELDS[:2]] or present
    cols = [("dim_A", dims_A)] + [("dim_" + key.removeprefix("hilbert_"), fields[key]) for key in shown]
    if "hilbert_D" in fields:
        cols.append(("p_k", [a - d for a, d in zip(dims_A, fields["hilbert_D"])]))
    elif "p_by_weight" in fields:
        cols += [(f'"p{w}"', p) for w, p in fields["p_by_weight"].items()]
    lines = [",".join(["k"] + [name for name, _ in cols])]
    lines += [",".join([str(k)] + [str(vals[k]) for _, vals in cols]) for k in range(kmax + 1)]
    return "\n".join(lines) + "\n"


# fields the text header already shows, or that text output never showed
_TEXT_HIDDEN = ("name", "weight", "kmax", "weights", "d_fit", "n_2")


def text_fields(fields: dict) -> list[tuple[str, str]]:
    """(label, value) lines of a field table, in its order, as text output
    shows them: one line per weight for p_by_weight, n_2 on the n_1 line,
    one line per warning, JSON for every other value."""
    lines = []
    for key, val in fields.items():
        if key in _TEXT_HIDDEN:
            continue
        if key == "p_by_weight":
            lines += [(f"p{w}", json.dumps(p)) for w, p in val.items()]
        elif key == "n_1":
            lines.append(("n_1", f"{val}  n_2: {fields['n_2']}"))
        elif key == "verdicts":
            if val:
                lines.append(("verdicts", "  ".join(f"{k}={str(v).lower()}" for k, v in val.items())))
        elif key == "warnings":
            lines += [("warning", w) for w in val]
        else:
            lines.append((key, json.dumps(val)))
    return lines


def report_text(fields: dict) -> str:
    lines = [f"spec: {fields['name']}", f"kmax: {fields['kmax']}  weight: {Weight(*fields['weight'])}"]
    lines += [f"{label}: {value}" for label, value in text_fields(fields)]
    return "\n".join(lines) + "\n"


def _render(tables: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(tables[0] if len(tables) == 1 else tables, indent=2) + "\n"
    if fmt == "csv" and len(tables) > 1:
        return "\n".join(f"# spec: {t['name']}\n" + report_csv(t) for t in tables)
    return "\n".join((report_csv if fmt == "csv" else report_text)(t) for t in tables)


def _describe(spec: SubspaceSpec) -> dict:
    """The catalog listing's field table for one spec."""
    monomial = spec.gaps is not None
    out = {
        "name": spec.name,
        "kind": "monomial" if monomial else "conditions",
        "gaps": list(spec.gaps) if monomial else None,
        "points": None if monomial else [rat_to_str(p) for p in spec.points],
        "num_functionals": len(spec.functionals),
        "conductor": str(spec.conductor),
        "warnings": list(spec.warnings) or None,
    }
    return {key: val for key, val in out.items() if val is not None}


def _render_catalog(fmt: str) -> str:
    entries = [_describe(spec) for spec in catalog()]
    if fmt == "json":
        return json.dumps(entries, indent=2) + "\n"
    if fmt == "csv":
        lines = ["name,kind,num_functionals,conductor"]
        for e in entries:
            lines.append(f"{e['name']},{e['kind']},{e['num_functionals']},\"{e['conductor']}\"")
        return "\n".join(lines) + "\n"
    lines = []
    for e in entries:
        extra = f" gaps={e['gaps']}" if "gaps" in e else f" points={e['points']}"
        lines.append(f"{e['name']}: {e['kind']}{extra} conductor={e['conductor']}")
    return "\n".join(lines) + "\n"


def _emit(payload: str, out: str | None) -> int:
    """Write the payload to stdout, or to the file ``out``: 0, or 2 if it
    cannot be written."""
    try:
        if out is None:
            sys.stdout.write(payload)
        else:
            Path(out).write_text(payload)
    except OSError as exc:
        print(f"lmtool: error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def run(argv: Sequence[str]) -> int:
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:  # argparse reports usage errors itself
        code = exc.code
        return code if isinstance(code, int) else 2

    try:
        if args.verb == "catalog":
            return _emit(_render_catalog(args.format), args.out)

        if args.kmax < 4:
            raise ValueError("--kmax must be at least 4")
        if args.kmax > KMAX_LIMIT:
            raise ValueError(f"--kmax must be at most {KMAX_LIMIT}")
        weights = None if args.weights is None else _parse_weights(args.weights)
        specs = [_load_spec(token) for token in args.spec]
        if args.verb in ("invariant", "chern", "dual") and not specs:
            raise ValueError(f"{args.verb} needs at least one --spec")
        if args.verb == "relative" and len(specs) != 2:
            raise ValueError("relative needs exactly two --spec arguments")
        if args.verb in ("chern", "relative", "dual") and weights and weights != (W11,):
            raise ValueError(f"{args.verb} is pinned to weight 1,1")

        if args.verb == "invariant" and weights and len(weights) > 1:
            jobs = [(weights_report, spec, weights, args.kmax) for spec in specs]
        elif args.verb == "invariant":
            jobs = [(lm_invariant, spec, (weights or (W11,))[0], args.kmax) for spec in specs]
        elif args.verb == "relative":
            jobs = [(relative_invariant, specs[0], specs[1], args.kmax)]
        elif args.verb in ("chern", "dual"):
            verb = chern_number if args.verb == "chern" else dual_check
            jobs = [(verb, spec, args.kmax) for spec in specs]
        else:  # verify
            if weights == (W11,):  # full_report reads 1,1 whatever the list
                raise ValueError("verify always reads weight 1,1; give a weight to compare with it")
            jobs = [
                (full_report, spec, args.kmax, weights or DEFAULT_WEIGHTS)
                for spec in specs or catalog()
            ]
    except ValueError as exc:  # SpecError is a ValueError
        print(f"lmtool: error: {exc}", file=sys.stderr)
        return 2

    try:
        reports = []
        for verb, *inputs in jobs:
            t0 = time.perf_counter()
            report = verb(*inputs)
            if args.timing:
                report = report.replace(elapsed_ms=(time.perf_counter() - t0) * 1000.0)
            reports.append(report)
    except NotStabilizedError as exc:
        print(f"lmtool: not stabilized: {exc}", file=sys.stderr)
        print("lmtool: raise --kmax and rerun", file=sys.stderr)
        return 3
    except Exception as exc:  # the input was checked above, so this is a fault in lmtool
        print(f"lmtool: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    tables = [report_fields(r) for r in reports]
    if _emit(_render(tables, args.format), args.out):
        return 2

    failed = [fields for fields in tables if not fields["ok"]]
    for fields in failed:
        bad = [k for k, v in fields["verdicts"].items() if not v]
        print(f"lmtool: verdict failure for {fields['name']}: {', '.join(bad)}", file=sys.stderr)
        sequences = {
            key: val for key, val in fields.items()
            if key in HILBERT_FIELDS or key == "p_by_weight"
        }
        for label, value in text_fields(sequences):
            print(f"lmtool:   {label} = {value}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())

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
one line, without a traceback).  A negative fit constant counts as not
stabilized, since n >= 0 for every V.  A --kmax above KMAX_LIMIT, a weight
component above WEIGHT_LIMIT and a spec file whose conductor degree is above
subspace.CONDUCTOR_DEGREE_LIMIT are usage errors.  A --spec token that
names a built-in spec means that spec even if a file of the same name
exists; ./NAME reaches the file.  Reports go to stdout (or --out);
diagnostics go to stderr.  Output is deterministic: timing appears only
under --timing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from .catalog import catalog, catalog_get, catalog_names
from .invariants import (
    DEFAULT_WEIGHTS,
    HILBERT_FIELDS,
    W11,
    NegativeChernError,
    NonPolynomialError,
    NotStabilizedError,
    Report,
    chern_number,
    dual_check,
    full_report,
    lm_invariant,
    relative_invariant,
    report_csv,
    report_text,
    text_fields,
    weight_independence,
)
from .subspace import SpecError, parse_spec
from .weyl import Weight

_VERBS = ("invariant", "chern", "relative", "dual", "verify", "catalog")
KMAX_LIMIT = 200  # cost grows steeply with kmax; larger values are refused
WEIGHT_LIMIT = 64  # the column count grows with max(w1, w2); larger components are refused


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
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", default=None, metavar="PATH")
        p.add_argument("--timing", action="store_true",
                       help="include elapsed_ms in json/text output")
    return parser


def _parse_weights(raw: str) -> tuple[Weight, ...]:
    parts = [p for p in raw.split(";") if p.strip()]
    if not parts:
        raise ValueError("empty weight list")
    weights = tuple(Weight.parse(p) for p in parts)
    for w in weights:
        if max(w.w1, w.w2) > WEIGHT_LIMIT:
            raise ValueError(f"weight components must be at most {WEIGHT_LIMIT}, got '{w.w1},{w.w2}'")
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


class _Usage(Exception):
    pass


def _weights_report(spec, weights, kmax) -> Report:
    """invariant at several weights: p_D at each, and whether they agree."""
    res = weight_independence(spec, weights, kmax)
    return Report(
        name=spec.name, kmax=kmax, weight=weights[0], weights=weights,
        p_by_weight=res.p_sequences,
        p_D=res.values[0][1],
        verdicts={"weights": res.ok}, warnings=spec.warnings,
    )


def _timed(verb, *args) -> Report:
    t0 = time.perf_counter()
    report = verb(*args)
    report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return report


def _render(reports: list[Report], fmt: str, timing: bool) -> str:
    if fmt == "json":
        if len(reports) == 1:
            return json.dumps(reports[0].to_dict(timing=timing), indent=2) + "\n"
        return json.dumps([r.to_dict(timing=timing) for r in reports], indent=2) + "\n"
    if fmt == "csv":
        if len(reports) == 1:
            return report_csv(reports[0])
        blocks = [f"# spec: {r.name}\n" + report_csv(r) for r in reports]
        return "\n".join(blocks)
    return "\n".join(report_text(r, timing) for r in reports)


def _render_catalog(fmt: str) -> str:
    entries = [spec.describe() for spec in catalog()]
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


def _emit(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        Path(out).write_text(payload)


def run(argv: Sequence[str]) -> int:
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:  # argparse reports usage errors itself
        code = exc.code
        return code if isinstance(code, int) else 2

    try:
        if args.verb == "catalog":
            try:
                _emit(_render_catalog(args.format), args.out)
            except OSError as exc:
                print(f"lmtool: error: cannot write output: {exc}", file=sys.stderr)
                return 2
            return 0

        if args.kmax < 4:
            raise _Usage("--kmax must be at least 4")
        if args.kmax > KMAX_LIMIT:
            raise _Usage(f"--kmax must be at most {KMAX_LIMIT}")
        weights = None if args.weights is None else _parse_weights(args.weights)
        specs = [_load_spec(token) for token in args.spec]
        if args.verb in ("invariant", "chern", "dual") and not specs:
            raise _Usage(f"{args.verb} needs at least one --spec")
        if args.verb == "relative" and len(specs) != 2:
            raise _Usage("relative needs exactly two --spec arguments")
        if args.verb in ("chern", "relative", "dual") and weights and weights != (W11,):
            raise _Usage(f"{args.verb} is pinned to weight 1,1")

        if args.verb == "invariant" and weights and len(weights) > 1:
            jobs = [(_weights_report, spec, weights, args.kmax) for spec in specs]
        elif args.verb == "invariant":
            jobs = [(lm_invariant, spec, (weights or (W11,))[0], args.kmax) for spec in specs]
        elif args.verb == "relative":
            jobs = [(relative_invariant, specs[0], specs[1], args.kmax)]
        elif args.verb in ("chern", "dual"):
            verb = chern_number if args.verb == "chern" else dual_check
            jobs = [(verb, spec, args.kmax) for spec in specs]
        else:  # verify
            if weights is not None and len(weights) < 2:
                raise _Usage("verify needs at least two weights")
            jobs = [
                (full_report, spec, args.kmax, weights or DEFAULT_WEIGHTS)
                for spec in specs or catalog()
            ]
    except (_Usage, SpecError, ValueError) as exc:
        print(f"lmtool: error: {exc}", file=sys.stderr)
        return 2

    try:
        reports = [_timed(*job) for job in jobs]
    except (NotStabilizedError, NonPolynomialError, NegativeChernError) as exc:
        print(f"lmtool: not stabilized: {exc}", file=sys.stderr)
        print("lmtool: raise --kmax and rerun", file=sys.stderr)
        return 3
    except Exception as exc:  # the input was checked above, so this is a fault in lmtool
        print(f"lmtool: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    try:
        _emit(_render(reports, args.format, args.timing), args.out)
    except OSError as exc:
        print(f"lmtool: error: cannot write output: {exc}", file=sys.stderr)
        return 2

    failed = [r for r in reports if not r.ok]
    for r in failed:
        bad = [k for k, v in r.verdicts.items() if not v]
        print(f"lmtool: verdict failure for {r.name}: {', '.join(bad)}", file=sys.stderr)
        sequences = {
            key: val for key, val in r.to_dict().items()
            if key in HILBERT_FIELDS or key == "p_by_weight"
        }
        for label, value in text_fields(sequences):
            print(f"lmtool:   {label} = {value}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())

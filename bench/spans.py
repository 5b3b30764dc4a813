"""Spans and counters recorded from outside lmtool, by wrapping its functions.

Each wrapper is installed at the name its caller looks up (``graded`` calls
``poly_divmod`` through its own module global, so the wrapper goes on
``graded.poly_divmod``), and every original is put back on exit.  A span is
``[id, parent_id, name, start, end]``; the name is ``<layer>.<function>``,
where the layer is the module that defines the function.  Spans stay in
memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

from lmtool import cli, graded, invariants, linalg, subspace, weyl

# (owner, attribute, span name).  Owner is the module or class whose
# attribute the caller reads at call time.
WRAPPED = (
    (cli, "full_report", "invariants.full_report"),
    (cli, "_render", "cli.render"),
    (cli, "parse_spec", "subspace.parse_spec"),
    (subspace, "parse_spec", "subspace.parse_spec"),
    (invariants, "verify_lm_chern", "invariants.verify_lm_chern"),
    (invariants, "weight_independence", "invariants.weight_independence"),
    (invariants, "chern_number", "invariants.chern_number"),
    (invariants, "lm_invariant", "invariants.lm_invariant"),
    (invariants, "dual_check", "invariants.dual_check"),
    (invariants, "telescoping_check", "invariants.telescoping_check"),
    (invariants, "hilbert_seq", "invariants.hilbert_seq"),
    (invariants, "fit_euler", "invariants.fit_euler"),
    (invariants, "hom_dims", "graded.hom_dims"),
    (invariants, "module_dims", "graded.module_dims"),
    (invariants, "gr_inclusion_check", "graded.gr_inclusion_check"),
    (graded, "hom_piece", "graded.hom_piece"),
    (graded, "gr_symbol_space", "graded.gr_symbol_space"),
    (graded, "poly_divmod", "linalg.poly_divmod"),
    (graded, "monomial_basis", "weyl.monomial_basis"),
    (linalg.RowReducer, "add_row", "linalg.add_row"),
    (linalg.RowReducer, "nullspace", "linalg.nullspace"),
    (linalg.RowReducer, "rref", "linalg.rref"),
    (weyl.WeylEl, "top_component", "weyl.top_component"),
)

# Each of these public graded calls looks up exactly one tower.
TOWER_QUERIES = ("graded.hom_dims", "graded.module_dims", "graded.hom_piece")

# Times of functions that some workloads never call.  There they are exactly
# 0 on every run, so they are printed but left out of the result object.
PRINTED_ONLY = ("graded.gr_inclusion_s", "weyl.top_component_s", "cli.render_s", "subspace.parse_s")


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._t0 = 0.0

    def __enter__(self) -> "Tracer":
        self._t0 = time.perf_counter()
        for owner, attr, name in WRAPPED:
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        add_row = linalg.RowReducer.add_row
        counts = self.counts

        def counted_add_row(reducer, entries):
            kept = add_row(reducer, entries)
            counts["rows_offered"] += 1
            counts["rows_kept"] += kept
            return kept

        self._patch(linalg.RowReducer, "add_row", counted_add_row)
        self._patch(graded, "RowReducer", self._tower_reducer)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, name, clock(), None]
            spans.append(record)
            stack.append(record[0])
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[4] = clock()

        return wrapper

    def _tower_reducer(self, ncols: int):
        # graded builds exactly one reducer per tower it constructs
        self.counts["towers_built"] += 1
        self.counts["columns"] += ncols
        return linalg.RowReducer(ncols)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        total = {name: 0.0 for _, _, name in WRAPPED}
        calls: Counter = Counter()
        child: Counter = Counter()
        for sid, parent, name, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        graded_self = sum(
            end - start - child[sid]
            for sid, _, name, start, end in self.spans
            if name.startswith("graded.")
        )
        c = self.counts
        queries = sum(calls[name] for name in TOWER_QUERIES)
        return {
            "graded.self_s": (graded_self, "s"),
            "graded.gr_inclusion_s": (total["graded.gr_inclusion_check"], "s"),
            "graded.gr_inclusion.calls": (calls["graded.gr_inclusion_check"], "count"),
            "graded.towers_built": (c["towers_built"], "count"),
            "graded.tower_queries": (queries, "count"),
            "graded.tower_hit_ratio": ((queries - c["towers_built"]) / queries if queries else 0.0, "ratio"),
            "graded.columns": (c["columns"], "count"),
            "linalg.add_row_s": (total["linalg.add_row"], "s"),
            "linalg.rows_offered": (c["rows_offered"], "count"),
            "linalg.rows_kept": (c["rows_kept"], "count"),
            "linalg.row_keep_ratio": (c["rows_kept"] / c["rows_offered"] if c["rows_offered"] else 0.0, "ratio"),
            "linalg.poly_divmod_s": (total["linalg.poly_divmod"], "s"),
            "linalg.poly_divmod.calls": (calls["linalg.poly_divmod"], "count"),
            "linalg.nullspace_s": (total["linalg.nullspace"], "s"),
            "linalg.rref_s": (total["linalg.rref"], "s"),
            "weyl.top_component_s": (total["weyl.top_component"], "s"),
            "weyl.monomial_basis_s": (total["weyl.monomial_basis"], "s"),
            "invariants.fit_s": (total["invariants.fit_euler"], "s"),
            "cli.render_s": (total["cli.render"], "s"),
            "subspace.parse_s": (total["subspace.parse_spec"], "s"),
        }

    def write(self, path: Path, header: dict) -> None:
        """Write the spans, with times relative to the start of tracing."""
        t0 = self._t0
        spans = [[sid, parent, name, start - t0, end - t0] for sid, parent, name, start, end in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(dict(header, fields=["id", "parent", "name", "start_s", "end_s"], spans=spans), fh)

"""Seeded inputs and correctness checks for the three benchmark workloads.

Nothing here times anything.  A sweep workload turns a seed into a fixed
list of passes (a pass is the unit of work that ``run.py`` times) and judges
each spec it runs.  A result that is wrong, or a call that raises, is a
failure; nothing is skipped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter

from lmtool import cli, invariants, subspace

# -- catalog-verify ------------------------------------------------------------

CATALOG_ARGV = ("verify", "--kmax", "20")

# sha256 of the stdout of `lmtool verify --kmax 20`, recorded at the commit
# that introduced this benchmark.  The arithmetic is exact and the RREF is
# canonical, so a faster engine must reproduce these bytes.
CATALOG_STDOUT_SHA256 = "b473bf4471b2dcf1bf45eb3f2ef42921ed94ff268cd8f613603c91e9e4505e9e"

# (n, p_D) per catalog spec, as in the README's catalog table.
CATALOG_TABLE = {
    "trivial": (0, 0),
    "cusp": (1, 2),
    "gaps-1-2": (2, 4),
    "gaps-1-3": (3, 6),
    "gaps-1-2-3": (3, 6),
    "two-point": (2, 4),
    "mixed": (3, 6),
}


def catalog_problems(returncode: int, stdout: bytes) -> list[str]:
    """Every way one `lmtool verify --kmax 20` run differs from the record."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if hashlib.sha256(stdout).hexdigest() != CATALOG_STDOUT_SHA256:
        problems.append("stdout differs from the recorded digest")
    try:
        reports = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    seen = {r.get("name"): r for r in reports if isinstance(r, dict)}
    if set(seen) != set(CATALOG_TABLE):
        problems.append(f"reported specs {sorted(seen)} are not the catalog")
    for name, (n, p_d) in CATALOG_TABLE.items():
        r = seen.get(name, {})
        if r.get("ok") is not True or not all(r.get("verdicts", {}).values()):
            problems.append(f"{name}: verdicts {r.get('verdicts')}")
        if (r.get("n"), r.get("p_D")) != (n, p_d) or p_d != 2 * n:
            problems.append(f"{name}: n={r.get('n')} p_D={r.get('p_D')}, expected {n}, {p_d}")
    return problems


def run_catalog_in_process() -> tuple[int, bytes]:
    """`lmtool verify --kmax 20` through `cli.run`, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(list(CATALOG_ARGV))
    return code, buf.getvalue().encode()


# -- sweeps --------------------------------------------------------------------

# Point 0 is left out on purpose: there the conductor is a power of x and
# division by it is trivial, which is monomial-deep's territory.
POINT_POOL = ("1", "-1", "2", "-2", "1/2", "-1/3", "3/2", "-2/3")
COEFFS = ("1", "-1", "2", "-3", "1/2")
# A conditions group: one spec per entry, one tuple of gaps per point.  A
# point with gaps (1, 3) gets two functionals, one of derivative order 1 and
# one of order 3, each with random terms of lower order.  Every set of
# conditions at a point can be row-reduced to this shape.  The gaps are the
# orders to which no polynomial in V vanishes exactly at that point; they fix
# the conductor and the number of conditions.
# Conductor degrees are 2..6 and a group uses eight points, so each group
# takes every pool point exactly once.  The seed draws which point goes
# where, the lower-order terms and the coefficients.  Fixing the gaps keeps
# the cost of a batch nearly the same from seed to seed.
CONDITIONS_GROUP = (
    ((1,),),
    ((1,), (0,)),
    ((1, 3),),
    ((2,), (0, 1)),
    ((2, 3), (1,)),
)
CONDITIONS_GROUPS = 3


def _functional(rng: random.Random, order: int) -> list[dict]:
    terms = [{"order": o, "coeff": rng.choice(COEFFS)} for o in range(order) if rng.random() < 0.5]
    return terms + [{"order": order, "coeff": rng.choice(COEFFS)}]


class Sweep:
    """A seeded batch of spec documents, run in this process, one check per spec.

    The batch is the fixed work that one pass of a run repeats.  It is built
    from groups of the same shape, so each batch carries the same mix of
    cheap and costly specs.  No spec occurs twice in a batch, so within a
    pass every tower is built cold and used once.
    """

    name = ""
    kmax = 0
    batch_size = 0

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.docs: list[dict] = []
        self.specs: list = []
        while len(self.docs) < self.batch_size:
            docs = self._draw_group(rng)
            specs = [subspace.parse_spec(doc) for doc in docs]
            if len(set(specs) | set(self.specs)) == len(specs) + len(self.specs):
                self.docs += docs
                self.specs += specs

    def _draw_group(self, rng: random.Random) -> list[dict]:
        raise NotImplementedError

    def check(self, spec) -> list[str]:
        """Run one spec; return what is wrong with its results."""
        raise NotImplementedError

    def digest(self) -> str:
        text = json.dumps(self.docs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def properties(self) -> dict:
        """Input properties the engine's cost depends on."""
        points = [p for spec in self.specs for p in spec.points]
        degrees = Counter(spec.conductor.degree() for spec in self.specs)
        return {
            "specs": len(self.specs),
            "conductor_degree_histogram": dict(sorted(degrees.items())),
            "non_integer_point_share": sum(p.denominator != 1 for p in points) / len(points),
        }


class ConditionsSweep(Sweep):
    """Random point conditions, each through verify_lm_chern(spec, 16)."""

    name = "conditions-sweep"
    kmax = 16
    batch_size = CONDITIONS_GROUPS * len(CONDITIONS_GROUP)

    def _draw_group(self, rng):
        points = iter(rng.sample(POINT_POOL, len(POINT_POOL)))
        return [
            {
                "kind": "conditions",
                "points": [
                    {"c": next(points), "functionals": [_functional(rng, order) for order in gaps]}
                    for gaps in spec
                ],
            }
            for spec in CONDITIONS_GROUP
        ]

    def check(self, spec):
        report = invariants.verify_lm_chern(spec, self.kmax)
        out = []
        if not report.ok:
            out.append(f"verdicts {report.verdicts}")
        if report.p_D != 2 * report.n:
            out.append(f"p_D={report.p_D} n={report.n}")
        return out


class MonomialDeep(Sweep):
    """Gap sets at point 0 through weight_independence and chern_number at kmax 50.

    The batch holds one gap set for each largest gap 1..5 (conductor x^2
    to x^6); the seed draws the smaller gaps.
    """

    name = "monomial-deep"
    kmax = 50
    batch_size = 5

    def _draw_group(self, rng):
        return [
            {"kind": "monomial", "gaps": [g for g in range(1, top) if rng.random() < 0.5] + [top]}
            for top in range(1, 6)
        ]

    def check(self, spec):
        wind = invariants.weight_independence(spec, invariants.DEFAULT_WEIGHTS, self.kmax)
        n = invariants.chern_number(spec, self.kmax).n
        out = []
        if not wind.ok:
            out.append(f"weights disagree: {wind.values}")
        if any(p != 2 * n for _, p in wind.values):
            out.append(f"p_D values {[p for _, p in wind.values]} vs n={n}")
        return out


SWEEPS = {w.name: w for w in (ConditionsSweep, MonomialDeep)}

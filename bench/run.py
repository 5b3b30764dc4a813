"""lmtool benchmark: three workloads, a closed loop of one caller, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports lmtool from
``src/`` and installs nothing.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every result was
correct.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Meter, pin

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"
WORKLOADS = ("catalog-verify", "conditions-sweep", "monomial-deep")
SETUP_PROBES = 7  # timed set-up probes per run, after one untimed warm-up
CHILD_TIMEOUT_S = 150


def _import_lmtool() -> None:
    """Put the checkout's src/ first on sys.path and make sure it is used."""
    if not (SRC / "lmtool" / "__init__.py").is_file():
        sys.exit(f"bench: no lmtool sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lmtool

    if Path(lmtool.__file__).resolve().parent != SRC / "lmtool":
        sys.exit(f"bench: imported lmtool from {lmtool.__file__}, not from {SRC}")


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _build(workload: str, seed: int):
    """The workload's inputs: the built-in catalog or the seeded sweep batch."""
    import workloads
    from lmtool import catalog

    if workload == "catalog-verify":
        return catalog()
    return workloads.SWEEPS[workload](seed)


def measure_setup(workload: str, seed: int) -> Meter:
    """Time spawning an interpreter until it has imported lmtool and built the
    workload's inputs.  The probe prints its CLOCK_MONOTONIC reading when
    ready; Python's monotonic clock is system-wide on Linux."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]

    def spawn() -> float:
        child = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
        return float(child.stdout.split()[-1])

    spawn()  # the first one also compiles bytecode, which users pay once
    with Meter() as meter:
        for _ in range(SETUP_PROBES):
            with meter.unit() as unit:
                unit.end = spawn()
    return meter


def timed_passes(seconds: float, run_pass) -> list:
    """Run passes back to back while the next one is expected to end within
    ``seconds``; always at least one.  Returns what each ``run_pass(i)``
    returned."""
    start = time.perf_counter()
    passes, elapsed = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(len(passes)))
        elapsed.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(elapsed) > seconds:
            return passes


class Results:
    """Attempted and failed result counts; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"bench: FAIL {label}: {'; '.join(problems)}", file=sys.stderr)


def catalog_pass(results: Results, in_process: bool) -> Meter:
    """One `lmtool verify --kmax 20`: a subprocess, or cli.run in this process
    from an empty tower cache."""
    import workloads
    from lmtool import graded

    graded.clear_cache()
    with Meter() as meter, meter.unit():
        if in_process:
            try:
                code, out = workloads.run_catalog_in_process()
                problems = workloads.catalog_problems(code, out)
            except Exception as exc:  # a raising run is a failed result, not a crash
                problems = [f"{type(exc).__name__}: {exc}"]
        else:
            cmd = [sys.executable, "-m", "lmtool.cli", *workloads.CATALOG_ARGV]
            try:
                proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=_child_env(),
                                      timeout=CHILD_TIMEOUT_S)
                problems = workloads.catalog_problems(proc.returncode, proc.stdout)
            except subprocess.TimeoutExpired:
                problems = [f"no result within {CHILD_TIMEOUT_S} s"]
    results.record("lmtool " + " ".join(workloads.CATALOG_ARGV), problems)
    return meter


def sweep_pass(sweep, results: Results, parse: bool) -> Meter:
    """The sweep's batch from an empty tower cache, one Meter unit per spec.
    With ``parse``, the specs are first rebuilt from their documents, as one
    more unit."""
    from lmtool import graded, subspace

    graded.clear_cache()
    specs = sweep.specs
    with Meter() as meter:
        if parse:
            with meter.unit():
                specs = [subspace.parse_spec(doc) for doc in sweep.docs]
        for spec in specs:
            with meter.unit():
                try:
                    problems = sweep.check(spec)
                except Exception as exc:  # a raising spec is a failed result, not a crash
                    problems = [f"{type(exc).__name__}: {exc}"]
            results.record(spec.name, problems)
    return meter


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile (nearest rank) with at least ten samples
    above it, and its value; None when that would not exceed the median."""
    n = len(samples)
    p = 100 * (n - 10) // n if n > 10 else 0
    if p <= 50:
        return None
    ordered = sorted(samples)
    return p, ordered[-(-p * n // 100) - 1]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def run_untraced(workload: str, seed: int, seconds: float, results: Results) -> dict:
    setup = measure_setup(workload, seed)
    if workload == "catalog-verify":
        passes = timed_passes(seconds, lambda i: catalog_pass(results, in_process=False))
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # the largest child is lmtool
        specs = []
        print("# pass: one `lmtool verify --kmax 20` subprocess over the catalog")
    else:
        sweep = _build(workload, seed)
        passes = timed_passes(seconds, lambda i: sweep_pass(sweep, results, parse=False))
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        specs = [s for m in passes for s in m.normalized]
        print(f"# pass: the seeded batch of {len(sweep.specs)} specs from an empty tower cache")
        print(f"# inputs: {json.dumps(dict(sweep.properties(), sha256=sweep.digest()))}")
    setup_s = statistics.median(setup.normalized)
    walls = [sum(m.normalized) for m in passes]
    raw = [sum(m.raw) for m in passes]
    peak_mb = peak_kib / 1024  # ru_maxrss is in KiB on Linux
    print(f"setup_s      {setup_s:.6f} s    median of {SETUP_PROBES} set-up probes "
          f"(raw median {statistics.median(setup.raw):.6f} s)")
    print(f"wall_s       {statistics.median(walls):.6f} s    median of {len(walls)} passes, "
          f"range {min(walls):.6f}..{max(walls):.6f} (raw median {statistics.median(raw):.6f} s)")
    if not specs:
        print("spec_s.*     n/a        a pass is one CLI run over the whole catalog; see wall_s")
    else:
        print(f"spec_s.p50   {statistics.median(specs):.6f} s    n={len(specs)}")
        t = tail(specs)
        if t:
            print(f"spec_s.tail  {t[1]:.6f} s    p{t[0]}, n={len(specs)}")
        else:
            print(f"spec_s.tail  n/a        {len(specs)} spec samples leave no percentile "
                  "above the median with ten beyond it; see wall_s")
    print(f"peak_rss_mb  {peak_mb:.3f} MB")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def _counts(metrics: dict) -> dict:
    return {name: value for name, (value, unit) in metrics.items() if unit == "count"}


def run_traced(workload: str, seed: int, seconds: float, results: Results) -> dict:
    """After one untimed pass, pairs of one untraced and one traced pass over
    the same fixed work: the catalog through cli.run in this process, or a
    sweep's batch rebuilt from its documents.  Per-layer times come from the
    fastest traced pass; the counts depend only on the seed and must repeat
    in every pair."""
    from spans import PRINTED_ONLY, Tracer

    if workload == "catalog-verify":
        def work() -> float:
            return sum(catalog_pass(results, in_process=True).normalized)
    else:
        sweep = _build(workload, seed)

        def work() -> float:
            return sum(sweep_pass(sweep, results, parse=True).normalized)

    untraced: list[float] = []
    traced: list[float] = []
    fastest: Tracer | None = None  # only its spans are kept

    def pair(i: int) -> None:
        nonlocal fastest
        untraced.append(work())
        with Tracer() as tracer:
            traced.append(work())
        if fastest is not None:
            counts, first = _counts(tracer.metrics()), _counts(fastest.metrics())
            results.record("trace counts", [] if counts == first else [f"{counts} != {first}"])
        if traced[-1] <= min(traced):
            fastest = tracer

    work()  # untimed: the first pass in a process also grows the heap
    timed_passes(seconds, pair)
    tracer = fastest
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1, "ratio")
    counts = _counts(metrics)
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.json"
    tracer.write(path, {"workload": workload, "seed": seed, "counts": counts})
    print(f"# spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(f"# {len(traced)} pairs; median pass {statistics.median(untraced):.6f} s untraced, "
          f"{statistics.median(traced):.6f} s traced")
    print(f"# counts: {json.dumps(counts, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6f} {unit}" if isinstance(value, float) else f"{name:28s} {value} {unit}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items() if name not in PRINTED_ONLY}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_lmtool()

    if args.setup_probe:
        _build(args.workload, args.seed)
        print(time.monotonic())
        return 0

    print(f"# lmtool benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment: {json.dumps(environment())}")
    pin()
    results = Results()
    if args.trace:
        metrics = run_traced(args.workload, args.seed, args.seconds, results)
    else:
        metrics = run_untraced(args.workload, args.seed, args.seconds, results)
    print(f"error_rate   {results.failed / results.attempted:.6f} ratio    "
          f"{results.failed} failed of {results.attempted} results")
    correct = results.failed == 0
    print(json.dumps({"correct": correct, "attempted": results.attempted,
                      "failed": results.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

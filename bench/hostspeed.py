"""Host-speed normalisation for the benchmark's timings.

On a shared host the same computation can take twice as long for seconds or
minutes at a time, so raw seconds from runs a few minutes apart do not
compare.  While a ``Meter`` is active, a timer signal runs a small probe
every ``INTERVAL_S``: a fixed pure-Python computation of the same kind as
lmtool's inner loops (integer row elimination and ``Fraction`` sums) that
does not use lmtool, so a change to lmtool cannot move it.  The probes run
in this thread between bytecodes, or while it waits for a child process on
the same CPU, and their time is left out of the units of work.

A unit's normalised time is its raw time times the mean of
``REFERENCE_S / probe`` over the probes that started while it ran or within
``INTERVAL_S`` of it: the seconds it would have taken on a host that runs
the probe in ``REFERENCE_S``.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

INTERVAL_S = 0.1
# Probe time that normalised seconds refer to, roughly its time on a quiet
# 2-core x86_64 host with CPython 3.11.  It only fixes the unit.
REFERENCE_S = 0.002


def probe() -> float:
    """Run the reference computation once; return the CPU time it took.

    CPU time, not wall time: a child pinned to the same CPU may run while
    the probe waits for its turn, and that must not count as slowness."""
    t0 = time.thread_time()
    rows = [[(i * 7919 + j * 104729) % 1000003 - 500000 for j in range(12)] for i in range(12)]
    acc = Fraction(0)
    for k in range(24):
        for i in range(1, 12):
            a, b = rows[i][0] or 1, rows[0][0] or 1
            g = gcd(a, b)
            row = [x * (b // g) - y * (a // g) for x, y in zip(rows[i], rows[0])]
            g = 0
            for x in row:
                g = gcd(g, x)
            rows[i] = [x // g for x in row] if g > 1 else row
        for j in range(8):
            acc += Fraction(j + 1, k + 2)
        rows = [r[1:] + r[:1] for r in rows]
    return time.thread_time() - t0


class _Unit:
    end: float | None = None


class Meter:
    """Raw and normalised times of units of work, timed with ``unit()``
    inside ``with meter:``; both lists are filled in on exit.

    Probes run in this process.  Work in a child process must share this
    process's CPU (see ``pin``), so that the probes measure the CPU the work
    runs on and the time they take from it can be left out.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.normalized: list[float] = []
        self._units: list[tuple[float, float]] = []  # (start, end)
        self._probes: list[tuple[float, float]] = []  # (start, CPU time)
        self._busy = False
        self._previous = None

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        for start, end in self._units:
            inside = sum(d for t, d in self._probes if start <= t <= end)
            near = [d for t, d in self._probes if start - INTERVAL_S <= t <= end + INTERVAL_S]
            near = near or [d for _, d in self._probes]  # only if ticks were dropped
            raw = end - start - inside
            self.raw.append(raw)
            self.normalized.append(raw * sum(REFERENCE_S / d for d in near) / len(near))

    def _tick(self, *_) -> None:
        if self._busy:  # a tick that arrives during a probe is dropped
            return
        self._busy = True
        self._probes.append((time.monotonic(), probe()))
        self._busy = False

    @contextmanager
    def unit(self):
        """Time the body as one unit, without the probes run during it.
        The body may move the unit's end earlier by setting ``end`` on the
        object it gets to a ``time.monotonic()`` reading."""
        unit = _Unit()
        start = time.monotonic()
        yield unit
        self._units.append((start, unit.end or time.monotonic()))


def pin() -> None:
    """Keep this process, and the children it starts from now on, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

"""A clock that runs at a fixed reference speed, for timings on a shared VM.

A small VM shares its host with other tenants, and its speed changes by up to
1.6x within seconds as their load changes: a fixed loop timed alone reads
0.15 s for a while, then 0.24 s.  Wall-clock medians of ten runs then spread
by 0.3-0.4 of their median, more than any useful regression bound.

``ReferenceClock`` measures the speed as it goes.  While it runs, a SIGALRM
handler times ``reference_work`` (a fixed stdlib-only loop that calls nothing
in lerayfront, so no change to the program moves it) every ``PROBE_EVERY_S``
seconds.  The clock then advances by wall time times ``REFERENCE_S`` over the
median of the last few probe times, and stands still while a probe runs.
Its readings are seconds on a machine where ``reference_work`` takes
``REFERENCE_S``.  On a 2-vCPU VM, ten runs of the cusp workload took 39 to
74 s of wall time each, yet their solve times on this clock spread by 0.024
of the median (first to third quartile).
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter

# reference_work's time on a 2-vCPU VM (Python 3.11) in a quiet phase.
REFERENCE_S = 0.0027
PROBE_EVERY_S = 0.1
PROBES_KEPT = 5


def reference_work():
    """Exact rationals, dict updates, tuple keys and big ints, as the program uses."""
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    big = 1
    for i in range(1, 850):
        acc += Fraction(i, i % 29 + 1)
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i * i
        big = big * 12345 + i
    sorted(table.items())
    return acc, big


def probe() -> float:
    """Seconds ``reference_work`` takes now."""
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def speed_factor(samples: int = PROBES_KEPT) -> float:
    """REFERENCE_S over the median of ``samples`` back-to-back probes."""
    return REFERENCE_S / statistics.median(probe() for _ in range(samples))


class ReferenceClock:
    """``now()`` in reference seconds while the clock is entered.

    Use it around the measuring loop only: it owns SIGALRM and the real-time
    interval timer while entered, and restores both on exit.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._recent: deque[float] = deque(maxlen=PROBES_KEPT)
        self._ref = 0.0  # reference seconds at wall time self._wall
        self._wall = 0.0
        self._factor = 1.0
        self._previous = None

    def _probe(self, *_):
        start = perf_counter()
        self._ref += (start - self._wall) * self._factor
        took = probe()
        self.probes.append(took)
        self._recent.append(took)
        self._factor = REFERENCE_S / statistics.median(self._recent)
        self._wall = perf_counter()

    def now(self) -> float:
        return self._ref + (perf_counter() - self._wall) * self._factor

    def __enter__(self):
        self._wall = perf_counter()
        for _ in range(PROBES_KEPT):
            self._probe()
        self._ref, self._wall = 0.0, perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

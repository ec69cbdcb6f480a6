"""Machine-speed meter: scales measured wall times to a reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts.  A
fixed pure-Python loop, timed back to back for four minutes on a 2-vCPU
host, took from 3.2 to 5.8 ms (fastest to 90th percentile), switched speed
within tens of milliseconds, and its 40-s window averages still differed by
15% from window to window.  Medians of a protocol's wall time over one run
of the benchmark inherit that drift.

The meter samples the speed while the program runs: a ``SIGALRM`` timer
every ``INTERVAL_S`` runs a fixed loop of ``PROBE_LOOPS`` iterations in the
signal handler and records how long it took.  A measured interval is then
reported as its wall time, less the probe time spent inside it, times
``REFERENCE_PROBE_S`` over the mean probe time around it.  The result reads
as seconds on a machine where the probe takes ``REFERENCE_PROBE_S``.  A
change to the program moves the numerator only; a change of machine speed
moves both.  A pure-Python probe tracked the protocols' speed better than
probes of numpy float, object-dtype or memory-bound work.  The probe costs
about 1% of the measured time.  ``NOTES.md`` gives the spreads measured.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.01
PROBE_LOOPS = 1000
# Close to the probe's median time on the 2-vCPU host the benchmark was
# written on, so scaled values read as seconds on that host.  Frozen: the
# reported seconds are only comparable while it stays the same.
REFERENCE_PROBE_S = 6.0e-5
# Intervals shorter than this take the speed of the samples within
# MIN_SPAN_S around their middle.
MIN_SPAN_S = 0.2


class SpeedMeter:
    """Samples the probe's time every ``INTERVAL_S`` while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        started = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        self.durations.append(time.perf_counter() - started)
        self.starts.append(started)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, lo: float, hi: float) -> list[float]:
        return self.durations[bisect.bisect_left(self.starts, lo):
                              bisect.bisect_right(self.starts, hi)]

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end``, less probe time, at the reference speed."""
        own = (end - start) - sum(self._between(start, end))
        half = max(end - start, MIN_SPAN_S) / 2
        middle = (start + end) / 2
        near = self._between(middle - half, middle + half) or self.durations
        if not near:
            raise RuntimeError("the speed meter took no samples")
        return own * REFERENCE_PROBE_S / statistics.fmean(near)

    def median_probe_s(self) -> float:
        return statistics.median(self.durations)

"""Speed of the vCPU the benchmark runs on, sampled while work runs.

On a shared host each vCPU switches, independently and for seconds to
minutes at a time, between a fast state and states 1.4 to 2.5 times
slower, and identical calls of the package differ by up to that much.
The benchmark pins itself and its children to one vCPU and times a
fixed probe on that vCPU while the measured work runs, either from a
sampler process (around CLI processes and in-process set-up) or
between queries (in the trajectory client).  ``probes()`` picks the
probes of an interval and ``reference_s()`` converts the interval's
wall time to reference seconds: the time the same work takes on a vCPU
that runs the probe in ``REFERENCE_S``.

Run as a script this file is the sampler: every ``PERIOD`` seconds it
times ``probe()`` and prints ``<end perf_counter> <seconds>``, until
its stdin closes.
"""

from __future__ import annotations

import csv
import io
import math
import os
import select
import subprocess
import sys
import time

PERIOD = 0.1  # seconds between probes
PROBE_ROUNDS = 12
# probe() in the fast state of a 2.1 GHz Xeon vCPU, Python 3.11.7
REFERENCE_S = 1.0e-3
# Work slows by the probe's slowdown to these powers: the slope of log
# time on log probe speed, fitted to the benchmark's units of work on
# the machine named above.  A probe in the sampler process, which a
# context switch separates from the work, slows more than the package
# (slopes 0.4 to 0.9 at different hours, 0.7 the steadiest); a probe
# run between queries by the measured process itself slows as much
# (slope 1.0 in each of two sets of runs).
SAMPLER_SENSITIVITY = 0.7
INLINE_SENSITIVITY = 1.0
_ROWS = "".join(f"A{i:06d},Journal {i * 37 % 300}, 20{10 + i % 9}-0{1 + i % 8}-1{i % 9}\n"
                for i in range(60))


def _probe_round() -> list[float]:
    """A little of what the package does: parse CSV, join names, sort, exponentiate."""
    by_journal = {}
    for article_id, journal, date in csv.reader(io.StringIO(_ROWS)):
        by_journal.setdefault(journal.strip().lower(), []).append((int(date[:5]), article_id))
    keys = sorted((-sum(y for y, _ in rows) / len(rows), name)
                  for name, rows in by_journal.items())
    return [1.0 - math.exp(1e-4 * y) for y, _ in keys]


def probe() -> float:
    """Seconds a fixed piece of pure-Python work takes now."""
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        _probe_round()
    return time.perf_counter() - start


def pin() -> None:
    """Keep this process and the ones it starts on one vCPU."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def probes(samples, start: float, end: float) -> list[float]:
    """Probe seconds of the ``(end time, seconds)`` samples in ``[start, end]``.

    An interval without a probe in it takes the nearest probe.
    """
    inside = [seconds for t, seconds in samples if start <= t <= end]
    if not inside:
        middle = (start + end) / 2
        inside = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
    return inside


def reference_s(seconds: float, probe_s: list[float],
                sensitivity: float = SAMPLER_SENSITIVITY) -> float:
    """``seconds`` of work during the probes ``probe_s``, in reference seconds.

    The vCPU's speed at a probe is ``REFERENCE_S / probe seconds``; the
    work ran at that speed raised to ``sensitivity``.
    """
    return seconds * sum((REFERENCE_S / p) ** sensitivity for p in probe_s) / len(probe_s)


class Sampler:
    """The sampler process, for use as a context manager: ``samples`` is filled on exit.

    Entering waits for the first probe, so the sampler's own start-up
    is over before the measured work begins.  That probe only stands in
    for work too short to hold one.
    """

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            self.first = self.proc.stdout.readline()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        return self

    def __exit__(self, *exc):
        out, _ = self.proc.communicate()  # closes stdin, so the sampler ends
        self.samples = [tuple(map(float, line.split())) for line in (self.first + out).splitlines()]
        return False


def _sample() -> None:
    while True:
        seconds = probe()
        print(time.perf_counter(), seconds, flush=True)
        if select.select([sys.stdin], [], [], PERIOD)[0]:
            return


if __name__ == "__main__":
    _sample()

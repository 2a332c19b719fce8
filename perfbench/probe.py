"""A fixed reference loop, and a probe that times it during a pass.

The host this benchmark was sized on changes speed by up to 2x within
seconds, and its slow stretches hit allocation-heavy Python code such as
homgenus far more than a tight integer loop.  A pure-`Fraction` loop slows
down with homgenus, so timing it every PROBE_PERIOD_S seconds during a pass
and dividing each stretch of the pass by the loop time measured at its end
gives the pass's duration in reference-loop units (`wall_ref`).  That figure
tracks the program's work and not the host's speed; `wall_s` stays the plain
wall time.
"""

import gc
import signal
from fractions import Fraction
from time import perf_counter

PROBE_PERIOD_S = 0.02
PROBE_STEPS = 200  # about 1 ms per probe, about 5% of a pass
CALIB_STEPS = 40000


def reference_loop(steps):
    x = Fraction(0)
    for k in range(1, steps + 1):
        x = (x + Fraction(k % 7 + 1, k % 11 + 1)) % 97
    return x


def calib():
    """Seconds for the long reference loop, to make host drift visible."""
    t = perf_counter()
    reference_loop(CALIB_STEPS)
    return perf_counter() - t


def measure(start, probes):
    """(work seconds, work in reference-loop units) from `start` to the last probe.

    `probes` is a list of (probe start, probe seconds).  Probe time is left
    out, and each stretch of work before a probe is divided by that probe's
    time."""
    work = units = 0.0
    prev = start
    for t, dur in probes:
        work += t - prev
        units += (t - prev) / dur
        prev = t + dur
    return work, units


class SpeedProbe:
    """Times the reference loop from a SIGALRM handler while the block runs.

    After the block, `wall_s` is the block's duration less the probes, and
    `wall_ref` the same duration in reference-loop units (see `measure`).
    With `period` 0 the loop runs only once, at the end, so the block is not
    interrupted; `wall_ref` is then a rough figure."""

    def __init__(self, period=PROBE_PERIOD_S):
        self.period = period

    def __enter__(self):
        self.probes = []
        signal.signal(signal.SIGALRM, self._probe)
        self.start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()  # closes the last stretch
        self.wall_s, self.wall_ref = measure(self.start, self.probes)
        return False

    def _probe(self, *_):
        # a collection inside the probe would time the pass's heap, not the host
        enabled = gc.isenabled()
        gc.disable()
        t = perf_counter()
        reference_loop(PROBE_STEPS)
        self.probes.append((t, perf_counter() - t))
        if enabled:
            gc.enable()

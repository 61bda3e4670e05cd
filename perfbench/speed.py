"""Machine-speed normalisation of the benchmark's wall times.

On a shared machine the speed of one core drifts by up to ~1.7x, both over
hours and from one second to the next, as other tenants load the host; that
swamps any change to the library.  So every timed region is rescaled to a
reference speed, measured with a fixed reference task that does not touch the
library: one *unit* of the task takes ``UNIT_S`` seconds at the reference speed,
and a region's normalised time is

    seconds * UNIT_S / mean(unit seconds measured during or around the region)

``Clock.sampled`` measures the speed during the region: a SIGALRM timer
interrupts it every ``PERIOD_S`` seconds to run one unit, whose time is then
taken out of the region's.  ``Clock.bracketed`` runs units just before and just
after the region, for regions spent waiting on a child process.

The unit mixes, in about equal parts of its time, what the library's time is
made of: interpreted arithmetic with ``math`` calls, Python function calls
with keyword arguments, scipy.special calls on scalars, numpy calls on small
arrays, and a pass over an array larger than a core's L2 cache (into a
preallocated buffer, so that the task adds little to the peak resident
memory).  Fitting per-pass times of the workloads against each part showed
that the call-bound parts track the workloads' slowdowns best, and that an
equal mix tracks all of them within about 5% per pass.
"""
from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np
from scipy.special import gammaln

__all__ = ["UNIT_S", "PERIOD_S", "reference_unit", "Clock"]

# Seconds one unit takes on the 2-core x86_64 (2.1 GHz) machine the benchmark
# was defined on, at its typical speed; it only sets the scale.
UNIT_S = 0.005
PERIOD_S = 0.1
BRACKET_UNITS = 16

_SMALL = np.linspace(0.0, 1.0, 64)
_LARGE = np.linspace(0.0, 1.0, 1 << 19)
_BUFFER = np.empty(1 << 18)


def _step(x, scale=2):
    return x * scale + 1


def reference_unit():
    """Wall seconds of one unit of the fixed reference task."""
    t0 = perf_counter()
    s = 0.0
    for i in range(3200):
        s += math.sqrt(i) * math.lgamma(1 + i % 13)
    k = 0
    for i in range(8000):
        k = _step(i, scale=k % 7)
    for i in range(3200):
        s += float(gammaln(1.5 + i % 7))
    for _ in range(180):
        s += float(np.sum(np.cos(_SMALL) * _SMALL))
    # every other element: half the arithmetic, but all of the 4 MB streams through
    np.negative(_LARGE[::2], out=_BUFFER)
    np.exp(_BUFFER, out=_BUFFER)
    np.multiply(_BUFFER, _LARGE[1::2], out=_BUFFER)
    s += float(_BUFFER.sum()) + k
    if not math.isfinite(s):
        raise ArithmeticError("reference task overflowed")
    return perf_counter() - t0


class Clock:
    """Times regions one after another: raw wall seconds and normalised seconds."""

    def __init__(self):
        self.raw, self.normalised = [], []

    def _record(self, seconds, units):
        self.raw.append(seconds)
        self.normalised.append(seconds * UNIT_S / statistics.fmean(units))

    def sampled(self, fn):
        """fn(), timed with the speed sampled while it runs; returns its result."""
        units, probe_s = [], [0.0]

        def tick(signum, frame):
            t0 = perf_counter()
            units.append(reference_unit())
            probe_s[0] += perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            t0 = perf_counter()
            out = fn()
            signal.setitimer(signal.ITIMER_REAL, 0.0)  # no tick after the end is taken
            seconds = perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        if not units:  # a region shorter than one period
            units.append(reference_unit())
        self._record(seconds - probe_s[0], units)
        return out

    def bracketed(self, fn):
        """fn(), timed with the speed measured just before and just after it."""
        units = [reference_unit() for _ in range(BRACKET_UNITS)]
        t0 = perf_counter()
        out = fn()
        seconds = perf_counter() - t0
        units += [reference_unit() for _ in range(BRACKET_UNITS)]
        self._record(seconds, units)
        return out

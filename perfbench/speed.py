"""The machine's current speed, sampled with fixed reference work between ops.

The shared machines this benchmark runs on change speed by +-25% over
seconds to minutes (measured on a 2-vCPU Intel Xeon virtual machine; process CPU
time swings with wall time, so this is not preemption).  Every timed
sample is therefore scaled to a nominal machine speed: the reference work
is timed between ops at least every PROBE_EVERY_S, and a sample taken
while the reference took r seconds (median around the op) is multiplied
by NOMINAL_REFERENCE_S / r.
The reference shares no code with scatterkit, so a faster or slower
scatterkit moves the scaled times exactly as it moves the raw ones.  It
runs with the cyclic garbage collector off, so a collection owed to what
the last op left behind falls into the next op's time, not into the
reference's.

Set-up time is mostly starting an interpreter and importing, whose speed
follows the machine less closely than the reference work does: on the
machine above, set-up time over the reference time varied by up to 29%
between runs, and over a reference start by up to 10%.  So a set-up time
is scaled by a reference start instead: a fresh interpreter that imports
the standard-library modules the benchmark uses, timed just before and
just after.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

#: Reference time that defines the nominal speed; fixed for good, so
#: scaled times stay comparable between commits.
NOMINAL_REFERENCE_S = 0.001
PROBE_EVERY_S = 0.02
#: Reference start time that defines the nominal speed for set-up times;
#: fixed for good, like NOMINAL_REFERENCE_S.
NOMINAL_START_S = 0.05
REFERENCE_START = [
    sys.executable,
    "-c",
    "import argparse, collections, dataclasses, functools, hashlib, itertools, json, random, re, statistics",
]
#: Fewest probe samples on each side of an op that its speed is taken from.
WINDOW = 5


def reference_work():
    """About a millisecond of interpreter work shaped like scatterkit's:
    small-int bit operations, tuples, frozensets, dict updates and calls."""
    table = {}
    acc = 0
    for i in range(500):
        members = frozenset(j for j in range(8) if (i >> j) & 1)
        key = (i & 15, len(members))
        table[key] = table.get(key, 0) + 1
        acc ^= hash(members) & 0xFFFF
    return acc, len(table)


def reference_seconds():
    """Time one run of the reference work, with the cyclic GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_start_seconds(env, cwd):
    """Time one reference start, in the environment and directory a worker gets."""
    start = perf_counter()
    subprocess.run(REFERENCE_START, env=env, cwd=cwd, check=True)
    return perf_counter() - start


class SpeedProbe:
    def __init__(self):
        self.samples = array("d")
        self._last = float("-inf")
        self._scales = {}

    def poll(self):
        """Time the reference work if PROBE_EVERY_S has passed; returns the
        number of probe samples so far, which stamps the next op sample."""
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.samples.append(reference_seconds())
            self._last = perf_counter()
        return len(self.samples)

    def scale(self, stamp, seconds):
        """Nominal-over-measured speed factor for an op sample of the given
        length that ran between probe samples stamp-1 and stamp.

        The speed is the median of the probe samples on either side of the
        op, over a span as long as the op itself (at least WINDOW samples
        a side), so a long op is scaled by the speed around its whole run.
        """
        side = max(WINDOW, round(seconds / (2 * PROBE_EVERY_S)))
        key = (stamp, side)
        if key not in self._scales:
            window = self.samples[max(0, stamp - side) : stamp + side]
            self._scales[key] = NOMINAL_REFERENCE_S / statistics.median(window)
        return self._scales[key]

    def scaled(self, raw, stamps):
        return [value * self.scale(k, value) for value, k in zip(raw, stamps)]

"""The host's speed during a run, measured by a fixed reference loop.

The reference machine shares its CPU cores with other tenants, and the same
pure-Python code ran up to 2.8x slower in one round than in another while
they were busy; how busy they are changes from second to second and from
minute to minute (see the README, "Noise on a shared host").  No statistic of the program's own times
removes that.  So the harness also times a probe, a fixed loop of dict
lookups, string slicing, list appends, a sort and a join (the kind of work
the program does), between its timed units, and scales every time by how
slow the probe ran beside it in the same round:

    scaled time = measured time * NOMINAL_PROBE_S / mean probe time

A scaled time is the time the unit would take with the host at the probe's
nominal speed.  The probe is the benchmark's own code, so a change to the
program never changes it.

After each timed unit of d seconds the probe runs for SHARE * d, and at
least once, so the probes sample the host right beside the units and in
proportion to the time the units take.
"""

from __future__ import annotations

import random
import statistics
import time

clock = time.perf_counter

SHARE = 0.1
# About the probe's median time on the reference machine (2 vCPU Xeon,
# 2.1 GHz, Python 3.11) over 216 rounds of trial runs; it only sets the
# scale, and must never change, or no figure compares with an earlier one.
NOMINAL_PROBE_S = 2.5e-4

_rng = random.Random(20240601)
_TABLE = {f"w{i:05d}": i for i in range(20000)}
_KEYS = [f"w{_rng.randrange(20000):05d}" for _ in range(600)]


def probe() -> float:
    """One probe; returns its duration in seconds."""
    start = clock()
    total, parts = 0, []
    for key in _KEYS:
        total += _TABLE[key]
        parts.append(key[1:])
    parts.sort()
    total += len("|".join(parts))
    if total < 0:  # keeps the work observable
        raise AssertionError
    return clock() - start


class HostProbe:
    def __init__(self):
        self.samples: list[float] = []

    def after(self, seconds: float):
        """Run the probe for SHARE * `seconds`, and at least once.  A first,
        unrecorded probe brings its data back into the caches, so that the
        recorded ones measure the host, not what the unit left in the cache."""
        probe()
        budget = SHARE * seconds
        while True:
            took = probe()
            self.samples.append(took)
            budget -= took
            if budget <= 0:
                break

    def take(self) -> list[float]:
        """The samples so far; starts afresh."""
        out, self.samples = self.samples, []
        return out


def slowness(samples: list[float]) -> float:
    """How much slower than nominal the host ran: mean probe / nominal."""
    return statistics.fmean(samples) / NOMINAL_PROBE_S

"""How fast the host runs right now, and the CPU to run the next child on.

Other tenants of a shared host slow each of its CPUs in turn: by up to
2x, for seconds to minutes at a time, and independently on each CPU.
CPU time grows with wall time and steal time stays near 0, so the
slow-down cannot be read from the kernel's accounting.  The benchmark
therefore times a fixed stretch of work, ``calibration_work``, on the
child's CPU just before and just after each child, and scales the
child's times by ``REFERENCE_CALIBRATION_S`` over that calibration:
the result is the time the child would have taken at the reference
speed.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Set

import numpy

#: About the seconds ``calibration_work`` takes on a quiet two-core
#: Intel Xeon VM at 2.0 GHz, the host the committed numbers come from
#: (6.6-7.8 ms; 11-14 ms while other tenants load it).
REFERENCE_CALIBRATION_S = 0.0075


def calibration_work() -> None:
    """A fixed mix of the kinds of work the battery does: interpreter
    arithmetic, small tuples in a dict and a list, string allocation,
    and a numpy sort."""
    total, table, items = 0, {}, []
    for i in range(12_000):
        key = (i * 2654435761) & 0xFFFF
        total += i * i % 7
        table[key] = table.get(key, 0) + total
        items.append((key, str(i)))
    numpy.sort(numpy.random.default_rng(0).random(100_000))


def calibrate() -> float:
    """Median seconds of three runs of ``calibration_work`` here and now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        calibration_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def pin_quietest_cpu(cpus: Set[int]) -> float:
    """Pin this process, and so the children it starts next, to the CPU
    of ``cpus`` that calibrates fastest; returns that calibration."""
    if len(cpus) < 2:
        return calibrate()
    calibration = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        calibration[cpu] = calibrate()
    quietest = min(calibration, key=calibration.get)
    os.sched_setaffinity(0, {quietest})
    return calibration[quietest]


def allowed_cpus() -> Set[int]:
    """The CPUs this process may run on; empty where affinity is unsupported."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()

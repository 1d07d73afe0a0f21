"""The host's current speed, from a fixed calibration kernel.

The benchmark shares a few CPUs of a host with other tenants, whose load
makes every process take up to 1.7 times as long -- in CPU time too, not
only in wall time -- for stretches of ten seconds to minutes.  A whole run can fall
inside one such stretch, so no summary over the passes of a run removes it.

So the harness times this kernel between consecutive jobs, in its own
process while no job runs, and scales each job's times by how much slower
than its reference time the kernel ran just before and just after the job.
The kernel does what the program does: interpreter work on ints, dicts
and lists, and numpy array work like the brute-force sweep.  It never
touches ``groupfair``, so a change to the program cannot move it.
"""

from __future__ import annotations

import os
import statistics
import time

# One BLAS thread, as in the jobs (see ``run.child_env``): set before numpy
# is first imported, or its idle worker thread competes with the kernel.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

#: The kernel's wall and CPU time at the reference speed, in seconds: about
#: its fastest on the 2-CPU Intel Xeon host the benchmark was tuned on, so
#: scaled times read as the seconds a quiet host of that kind would take.
REFERENCE_S = 0.013

REPEATS = 3

_ARRAY = np.arange(1, 1 << 16, dtype=np.uint64)


def kernel() -> int:
    x, counts, items = 12345, {}, []
    for _ in range(20000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
        items.append(x >> 7)
    items.sort()
    hits = np.zeros(len(_ARRAY), dtype=np.int64)
    for i in range(12):
        digit = (_ARRAY // np.uint64(3 ** (i % 9 + 1))) % np.uint64(3)
        hits += np.bitwise_count(_ARRAY & (digit << np.uint64(i))) >= 1
    return len(counts) + int(hits.sum())


def measure() -> tuple:
    """(wall, cpu) slowdown against the reference: the medians of a few
    kernel runs, divided by :data:`REFERENCE_S`."""
    walls, cpus = [], []
    for _ in range(REPEATS):
        wall, cpu = time.perf_counter(), time.process_time()
        kernel()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    return statistics.median(walls) / REFERENCE_S, statistics.median(cpus) / REFERENCE_S


def between(before: tuple, after: tuple) -> tuple:
    """The slowdown over an interval: the mean of its two ends."""
    return tuple((a + b) / 2 for a, b in zip(before, after))

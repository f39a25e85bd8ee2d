"""Host-speed calibration for the benchmark's time metrics.

The benchmark runs on a few cores of a shared host whose speed drifts:
for seconds to minutes at a time everything runs 10 to 35 % faster or
slower, with CPU time equal to wall time.  So a fixed kernel that does
not touch scaledim is timed between operations, and each operation's
latency is also reported at a reference speed:

    reference seconds = wall seconds * NOMINAL_S / (kernel time)

which is the time on a host where one kernel call takes NOMINAL_S.  The
kernel time for an operation is the mean of the calls just before and
just after it, since the host's phases can be as short as a few
seconds.  A change to scaledim moves these figures as it moves the wall
times; a phase of the host moves the kernel as well and cancels.

The kernel does the two kinds of work the workloads do, interpreted
loops over ints, sets and lists, and numpy gathers and reductions over
rows of ints, on fixed inputs.  It runs for tens of milliseconds, long
enough to average over the host's sub-second bursts.

Process start-up drifts on its own: for minutes at a time a fresh
interpreter imports numpy in 0.17 s or in 0.25 s while the kernel above
does not move, and a ``python -m scaledim`` subprocess is slower by the
same 80 ms.  So where a workload starts processes, a start-up kernel,
``python -c "import numpy"``, is timed as well (at most every
START_EVERY_S), and an operation's latency at the reference speed is

    START_NOMINAL_S + (wall seconds - start-up kernel) * NOMINAL_S / kernel

that is, the interpreter's and numpy's start-up, which scaledim does not
control, is counted at its reference cost, and the rest at the
reference speed.  Whatever scaledim adds to start-up stays in the rest.
Here both kernel times are the medians of the run, not the calls next
to the operation: a subprocess of up to six seconds is not timed at the
speed of the 35 ms around it, and a single start-up sample is as noisy
as the operation.  On recorded runs of the profile workload, ten-run
sets spread by 0.076 of the median on op_p50_ref_s and 0.045 on
ops_per_ref_s this way, against 0.089 and 0.077 with the neighbouring
calls.  For the in-process workloads the neighbouring calls are the
steadier of the two.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# One kernel call takes about this long on the 2-vCPU Xeon VM of the
# committed baseline; it only fixes the unit of the scaled figures.
NOMINAL_S = 0.04
# Least wall time between two kernel calls within a run: operations of
# a quarter second or more get a kernel call before each of them.
EVERY_S = 0.25
# The start-up kernel's reference time, and the least wall time between
# two of its calls.
START_NOMINAL_S = 0.2
START_EVERY_S = 3.0

# Fixed scrambled inputs, made by multiplicative hashing rather than
# numpy.random, whose import would add to the process's peak memory.
_ROWS = (np.arange(16 * 4096, dtype=np.int64) * 2654435761
         % (1 << 20)).reshape(16, 4096)
_PICK = (np.arange(256, dtype=np.intp) * 40503) % 4096


def kernel() -> int:
    """Fixed work: about two thirds interpreted, one third numpy."""
    acc = 0
    for _ in range(8):
        seen: set[int] = set()
        members: list[int] = []
        for i in range(15000):
            k = (i * 7919) % 4099
            if k in seen:
                acc += k & 7
            else:
                seen.add(k)
                members.append(k)
        acc += len(members)
    for _ in range(60):
        for row in _ROWS:
            sub = row[_PICK]
            acc += int(sub.min()) + int(sub.max())
            acc += int(np.count_nonzero(row > (1 << 19)))
    return acc


def start_kernel() -> float:
    """Wall time of a fresh interpreter that imports numpy."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - t


class _Series:
    """Times of one kernel within a run, one at most every ``every``
    seconds, and for each operation the last sample taken before it."""

    def __init__(self, fn, every: float):
        self.fn, self.every = fn, every
        self.samples: list[float] = []
        self.last = float("-inf")
        self.marks: list[int] = []

    def sample(self) -> None:
        self.samples.append(self.fn())
        self.last = time.perf_counter()

    def before_op(self) -> None:
        if time.perf_counter() - self.last >= self.every:
            self.sample()
        self.marks.append(len(self.samples) - 1)

    def around(self, op: int) -> float:
        """Mean of the samples just before and just after operation
        ``op``."""
        k = self.marks[op]
        return (self.samples[k] + self.samples[k + 1]) / 2.0


def _timed_kernel() -> float:
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


class Calibration:
    """The kernel, and with ``start`` the start-up kernel, sampled
    between the operations of one run."""

    def __init__(self, start: bool = False):
        self.cpu = _Series(_timed_kernel, EVERY_S)
        self.start = _Series(start_kernel, START_EVERY_S) if start else None

    def _series(self):
        return [x for x in (self.cpu, self.start) if x is not None]

    def before_op(self) -> None:
        """Call before each operation."""
        for x in self._series():
            x.before_op()

    def finish(self) -> None:
        """Call after the last operation."""
        for x in self._series():
            x.sample()

    def kernel_s(self) -> float:
        return statistics.median(self.cpu.samples)

    def start_kernel_s(self) -> float:
        return statistics.median(self.start.samples)

    def scaled(self, lats: list[float]) -> list[float]:
        """The latencies at the reference speed: without the start-up
        kernel, each scaled by the kernel calls just before and just
        after its operation; with it, by the run's medians."""
        if self.start is None:
            return [lat * NOMINAL_S / self.cpu.around(op)
                    for op, lat in enumerate(lats)]
        speed = NOMINAL_S / self.kernel_s()
        start = self.start_kernel_s()
        return [START_NOMINAL_S + (lat - start) * speed for lat in lats]

"""Machine-speed calibration of the time metrics.

The benchmark runs on shared machines whose speed changes, by up to about
2x, over seconds to minutes: the same pure-Python loop, timed every half
second on a 2-vCPU VM, took from 22 ms to 82 ms.  Such a change hits every
time metric of a run at once and would read as a regression or a gain of
the program.  So a fixed reference kernel, which never calls `aughts`, is
timed right before and right after every timed job (and every set-up
start), and every half second inside a long job, and the job's times are
scaled by the kernel's reference time over its mean time around and in
the job.  The time metrics are thus in reference seconds:
the seconds the job would take on the machine in the state where the
kernel takes its reference time.  A change to the package does not move
the kernel, so it moves the scaled times as it moves the raw ones.

There are two kernels, each like the work of the workloads it calibrates,
because a machine that slows down slows interpreter-bound and numpy-bound
code by different amounts: `python`, a breadth-first search over the
symmetric group S_6 on tuples and a dict, like the group catalogs and
products; and `numpy`, int64 arithmetic and a unique on arrays of 512 KB,
like the census blocks and orbit tables.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_VALUES = np.random.default_rng(0).integers(-(1 << 30), 1 << 30, 1 << 16)


def python_kernel() -> int:
    start = tuple(range(6))
    seen = {start: 0}
    frontier = [start]
    while frontier:
        ahead = []
        for p in frontier:
            d = seen[p] + 1
            for j in range(1, 6):
                q = list(p)
                q[0], q[j] = q[j], q[0]
                q = tuple(q)
                if q not in seen:
                    seen[q] = d
                    ahead.append(q)
        frontier = ahead
    return len(seen)


def numpy_kernel() -> int:
    x = _VALUES * _VALUES + (_VALUES >> 3) ** 2
    return int(np.unique(x & 0xFFF).size) + int(np.count_nonzero(x > 0))


# kernel, runs per sample, and its reference wall and CPU seconds: its
# median times on a 2-vCPU x86_64 VM (Intel Xeon, Python 3.11, numpy 2.4),
# so scaled times read close to raw seconds on that machine.  A sample of
# the short Python kernel is the median of three runs, so that a single
# preemption does not count; the numpy kernel is four times as long.
KERNELS = {
    "python": (python_kernel, 3, 0.0021, 0.0021),
    "numpy": (numpy_kernel, 1, 0.0080, 0.0080),
}


def sample(kind: str) -> tuple[float, float]:
    """Wall and CPU seconds of one run of a kernel, the median of the
    kernel's runs per sample."""
    kernel, repeats = KERNELS[kind][:2]
    walls, cpus = [], []
    for _ in range(repeats):
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        t1, c1 = time.perf_counter(), time.process_time()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
    return statistics.median(walls), statistics.median(cpus)


def scales(kind: str, samples: list[tuple[float, float]]) -> tuple[float, float]:
    """Factors that turn the wall and CPU seconds of a job, measured while
    the kernel samples were taken, into reference seconds."""
    _, _, wall_ref, cpu_ref = KERNELS[kind]
    wall = statistics.fmean(s[0] for s in samples)
    cpu = statistics.fmean(s[1] for s in samples)
    return wall_ref / wall, cpu_ref / max(cpu, 1e-6)


class Calibration:
    """Kernel samples around one timed job and, every INTERVAL_S of wall
    time, inside it.

    A job of several seconds can run through a slow stretch that samples
    at its ends would miss, so while the job runs a SIGALRM timer takes a
    sample between two bytecodes of the job.  `start` and `stop` go inside
    the job's timed interval; the seconds the samples inside it took are
    kept in `inside_wall_s` and `inside_cpu_s`, to be taken off the job's
    times.  Creating the object takes the sample before the job, `finish`
    the one after it.
    """

    INTERVAL_S = 0.5

    def __init__(self, kind: str, inside: bool = True):
        self.kind = kind
        self.inside = inside
        self.samples = [sample(kind)]
        self.inside_wall_s = 0.0
        self.inside_cpu_s = 0.0
        self._handler = None

    def _tick(self, signum, frame) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        self.samples.append(sample(self.kind))
        self.inside_wall_s += time.perf_counter() - t0
        self.inside_cpu_s += time.process_time() - c0

    def start(self) -> None:
        if self.inside:
            self._handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)

    def finish(self) -> tuple[float, float]:
        """Take the sample after the job; return the wall and CPU scales."""
        self.samples.append(sample(self.kind))
        return scales(self.kind, self.samples)

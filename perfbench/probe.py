"""Machine-speed probe: times in reference CPU seconds.

On a shared virtual machine a solve's wall time carries two kinds of
noise from other tenants.  The virtual CPU is descheduled for a large
share of some solves (steal time), which CPU time does not count.  And
the CPU itself runs slower for tens of seconds at a time, which CPU
time does count.  To keep both out of the end-to-end times, the
benchmark measures the CPU time of its one thread, and while it works a
timer signal interrupts it every INTERVAL seconds to time a fixed
pure-Python kernel that shares no code with fdprop.  A timed interval
is then reported as its CPU time at the speed at which the kernel takes
REFERENCE_S: each stretch of it between two samples counts as

    (CPU time - CPU time spent in the probe) * REFERENCE_S / kernel time

where the kernel time is the running median of the samples around that
stretch.  The speed changes within a single solve, so one figure per
solve would follow it less closely.

Thread CPU time is used rather than process CPU time: while a process
CPU timer is armed (an interval timer on CPU time, or a CPU-time
limit), Linux may advance the process clock only at scheduler ticks.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.025
# Kernel CPU time at the reference speed, about its time on a quiet
# 2-core Xeon (Sapphire Rapids) virtual machine.
REFERENCE_S = 200e-6
# Samples in the running median of kernel times.
SMOOTH = 5


class _Cell:
    __slots__ = ("value", "links")

    def __init__(self, value: int):
        self.value = value
        self.links: list = []


def _arith(n: int = 1500) -> int:
    total = 0
    for i in range(n):
        total += i & 7
    return total


def _objects(n: int = 6, depth: int = 3) -> int:
    """A small backtracking search over objects, tuples and closures."""
    cells = [_Cell(i) for i in range(n)]
    found = [0]

    def safe(row, col, placed):
        for r, c in placed:
            if c == col or abs(c - col) == row - r:
                return False
        return True

    def place(row, placed):
        if row == depth:
            found[0] += 1
            return
        for cell in cells:
            if safe(row, cell.value, placed):
                placed.append((row, cell.value))
                cell.links.append(row)
                place(row + 1, placed)
                cell.links.pop()
                placed.pop()

    place(0, [])
    return found[0]


def kernel() -> None:
    _arith()
    _objects()


class SpeedProbe:
    """Samples kernel times while active; normalises timed intervals.

    Use as a context manager around the whole timed part of a run.  The
    intervals to normalise are ``time.thread_time()`` readings taken in
    the main thread; none falls inside a sample, because the handler
    runs between the program's bytecodes.
    """

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.times: list[float] = []       # CPU time at each sample's start
        self.kernel_s: list[float] = []
        self.spent_s: list[float] = [0.0]  # CPU time in the handler before each sample
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        kernel()
        self.times.append(start)
        self.kernel_s.append(time.thread_time() - start)
        self.spent_s.append(self.spent_s[-1] + time.thread_time() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _kernel_near(self, i: int) -> float:
        """Running median of the kernel times around sample i."""
        half = SMOOTH // 2
        lo = min(max(0, i - half), max(0, len(self.kernel_s) - SMOOTH))
        kernel_s = statistics.median(self.kernel_s[lo:lo + SMOOTH])
        if kernel_s <= 0.0:
            raise RuntimeError("the speed probe has no usable samples")
        return kernel_s

    def normalise(self, c0: float, c1: float) -> float:
        """The CPU-time interval from c0 to c1, in reference seconds.  A
        stretch before the first sample inside the interval, or an
        interval with no sample inside, counts at the speed of the
        nearest sample."""
        if not self.times:
            raise RuntimeError("the speed probe took no samples")
        lo = bisect.bisect_left(self.times, c0)
        hi = bisect.bisect_right(self.times, c1)
        edges = [c0, *self.times[lo:hi], c1]
        total = 0.0
        for j in range(len(edges) - 1):
            length = edges[j + 1] - edges[j]
            i = lo + j - 1  # the sample that opens this stretch
            if j:
                length -= self.spent_s[i + 1] - self.spent_s[i]
            nearest = min(max(i, lo), len(self.times) - 1)
            total += length * REFERENCE_S / self._kernel_near(nearest)
        return total

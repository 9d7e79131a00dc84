"""Host-speed calibration of the end-to-end times.

The benchmark runs on a shared host whose speed drifts: the same
interpreted work takes up to twice as long for seconds to minutes at a
time, and CPU time drifts with wall time, so neither the best nor the
median of a run's rounds is steady from one run to the next.

A :class:`Calibrator` therefore measures the host's speed while the
benchmark runs. A sampler thread wakes every :data:`PERIOD_S` seconds
and times a fixed reference kernel, the benchmark's own code that no
change to the program can touch, in its own CPU time. Every timed
interval is then rescaled, piece by piece, to a host on which the
kernel takes :data:`REFERENCE_S` CPU seconds:

    normalised piece = raw piece * REFERENCE_S / mean(kernel times
                       of the two samples around the piece)

The time the sampler itself holds the interpreter is left out. A
change that makes the program faster or slower moves the normalised
times by the same share as the raw ones; a host that slows down slows
the kernel with them and cancels out. The sampler must run on the same
CPU as the work it calibrates (see ``pin_to_one_cpu`` in ``run.py``).
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_right
from time import perf_counter, thread_time

#: Kernel CPU time that normalised seconds are expressed against;
#: a little under its median (1.3-1.4 ms) on the 2-vCPU Xeon host the
#: bounds were set on.
REFERENCE_S = 0.00125
#: Sleep between two kernel samples. The kernel takes about 6% of it.
PERIOD_S = 0.02


class _Cell:
    __slots__ = ("value", "seen")

    def __init__(self, value: int):
        self.value = value
        self.seen = [value]

    def step(self, salt: int) -> int:
        self.value = (self.value * 31 + salt) & 0xFFFF
        return self.value & 255


def kernel() -> int:
    """Fixed interpreted work: integer arithmetic, then attribute,
    method-call, dict and list traffic like the simulator's. It stays
    well under the interpreter's 5 ms switch interval, so the thread
    that runs it is not made to hand over half-way."""
    total = 0
    for i in range(5000):
        total += i * i % 7
    cells = [_Cell(i) for i in range(50)]
    counts: dict[int, int] = {}
    for salt in range(40):
        for cell in cells:
            key = cell.step(salt)
            counts[key] = counts.get(key, 0) + 1
            if not key & 3:
                cell.seen.append(key)
    return total + len(counts)


class Stopwatch:
    """Raw wall time, with the interface of :class:`Calibrator`."""

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def seconds(self, start: float, end: float) -> float:
        return end - start


class Calibrator(Stopwatch):
    """Normalised time of any interval, from a kernel-sampling thread.

    Intervals are ``perf_counter`` readings; :meth:`seconds` is exact
    only for intervals the sampler has passed, so normalise after
    :meth:`stop`.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts = array("d")
        self.ends = array("d")
        self.cpu = array("d")
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-calibrator")
        self._thread.start()

    def stop(self) -> None:
        """Take a last sample and end the sampler thread."""
        self._stopping.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _run(self) -> None:
        while True:
            self.sample()
            if self._stopping.is_set():
                return
            self._stopping.wait(self.period)

    def sample(self) -> None:
        t0, c0 = perf_counter(), thread_time()
        kernel()
        c1, t1 = thread_time(), perf_counter()
        self.starts.append(t0)
        self.cpu.append(c1 - c0)
        self.ends.append(t1)

    def seconds(self, start: float, end: float) -> float:
        """Normalised seconds of ``[start, end]``, samples excluded."""
        n = len(self.ends)
        if not n:
            raise RuntimeError("the calibrator took no sample")
        starts, ends, cpu = self.starts, self.ends, self.cpu
        i = bisect_right(ends, start, 0, n)
        t, total = start, 0.0
        while t < end:
            if i < n and starts[i] <= t:  # the sampler held this
                t = ends[i]
                i += 1
                continue
            upto = min(starts[i], end) if i < n else end
            before = cpu[i - 1] if i else cpu[0]
            after = cpu[i] if i < n else cpu[n - 1]
            total += (upto - t) * 2 * REFERENCE_S / (before + after)
            t = upto
        return total

"""Fixed reference work, timed during every measurement to divide out the
speed of a shared machine.

On a small shared VM the whole machine runs faster or slower for tens of
seconds at a time as other tenants load the host: the same pass takes up to
25% longer in a slow spell, and every pass of a 15-second run can fall in
the same spell, so neither medians nor longer runs remove it. The benchmark
therefore times this kernel while it measures, and reports times scaled to a
machine on which the kernel takes NOMINAL_S:
`reported = measured * NOMINAL_S / mean kernel time`. The kernel mixes the
kinds of work the package does (an interpreted loop, numpy sampling, small
complex matrix products), so a slow spell stretches it and the workload
alike. Raw times are kept in the record.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median kernel time on the machine the bounds were set on (2-vCPU Xeon VM,
# Python 3.11, numpy 2.4, one thread).
NOMINAL_S = 0.024
REPEATS = 3


def _kernel(rng: np.random.Generator) -> int:
    s = 0
    for i in range(100_000):
        s += i * i
    n = 0
    for _ in range(10):  # in small chunks, so the kernel adds ~1 MB to peak RSS
        n += int((rng.random(100_000) < 0.5).sum())
    m = np.eye(3, dtype=complex)
    for _ in range(2_000):
        m = m @ m.conj().T
    return s + n


def kernel_seconds(repeats: int = REPEATS) -> float:
    """Median wall time of the reference kernel over `repeats` calls."""
    rng = np.random.default_rng(0)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel(rng)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedSampler:
    """Times the kernel once per `interval` seconds of wall time, whatever
    the process is doing, from a SIGALRM handler in the main thread.

    A single operation can last longer than a spell of steady machine speed
    (a 10^6-shot roster takes about 22 s), so timing the kernel only between
    operations would miss the spells inside it. The handler runs between
    bytecodes and uses its own RNG, so the measured program's state and
    outputs are untouched. `clock()` is `time.perf_counter()` minus the time
    spent in the kernel, so the samples add nothing to measured times.
    """

    def __init__(self, interval: float = 1.0):
        self.interval = interval
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds(1))
        self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self) -> float:
        """NOMINAL_S over the mean kernel time sampled so far."""
        return NOMINAL_S / statistics.fmean(self.samples)

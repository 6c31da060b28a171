"""Machine-speed probe: job times scaled to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent within seconds and between runs, and a job's wall time drifts with
it. While the untraced run's jobs execute, a wall-clock timer interrupts them
every ``PERIOD_S`` seconds to time a small fixed kernel that owes nothing to
cvcat. A job's scaled time is its wall time without the probes inside it,
times ``KERNEL_REF_S`` over the kernel's trimmed mean time around that job:
the job's wall time on a machine where the kernel takes exactly
``KERNEL_REF_S``. A change to cvcat changes the job, not the kernel, so it
moves the scaled time as much as the wall time; a slower or faster host
moves both the job and the kernel, and the ratio stays. Speed is sampled
inside each job, not once per run, because the host's speed changes within
a job's length. A change that alters numpy's settings for the whole process
could move the kernel too; the unscaled wall times printed beside the
metrics show that case.

The kernel mixes what cvcat's jobs spend their time on: complex ufuncs on a
2048-point grid, a small matrix product, float-to-text formatting and an
interpreter loop. It runs twice per probe and only the second, warm pass is
timed, so the caches cvcat's own work left behind do not enter the sample.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# About the warm kernel time on a 2-vCPU Intel Xeon VM (Python 3.11, one
# BLAS thread), so that scaled times read close to seconds there. It is a
# fixed unit: it sets the scale of the scaled times and nothing else.
KERNEL_REF_S = 6.0e-4
TRIM = 0.1                  # share of samples cut at each end of the mean


class SpeedProbe:
    """Kernel samples taken on a timer while ``running``."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(2048)
        self.m = rng.standard_normal((48, 48))
        self.items = self.x[:256].tolist()
        # output buffers, so that the kernel's time owes nothing to the state
        # of the allocator that cvcat's own arrays left behind
        self.z = np.empty(2048, dtype=complex)
        self.c = np.empty(2048)
        self.mm = np.empty((48, 48))
        self.starts, self.ends, self.samples = [], [], []

    def kernel(self):
        x, z, c = self.x, self.z, self.c
        np.cos(x, out=c)
        for _ in range(8):
            np.multiply(x, 1j, out=z)
            np.exp(z, out=z)
            np.multiply(z, c, out=z)
        np.matmul(self.m, self.m, out=self.mm)
        text = ",".join("%.18e" % v for v in self.items[:64])
        acc = 0.0
        for v in self.items:
            acc += v * v
        return text, acc

    def sample(self, *_):
        start = time.perf_counter()
        self.kernel()
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.starts.append(start)
        self.samples.append(t1 - t0)
        self.ends.append(time.perf_counter())

    @contextlib.contextmanager
    def running(self):
        """Sample once now, every ``PERIOD_S`` s of wall time, and once at
        the end, so that every job has a sample on each side."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def probe_s(self, t0: float, t1: float) -> float:
        """Time spent in probes that started inside [t0, t1]."""
        i = bisect.bisect_left(self.starts, t0)
        k = bisect.bisect_right(self.starts, t1)
        return sum(self.ends[j] - self.starts[j] for j in range(i, k))

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] without its probes, at reference speed.

        The speed is the trimmed mean of the samples inside the interval
        and the one on each side of it."""
        i = bisect.bisect_left(self.starts, t0)
        k = bisect.bisect_right(self.starts, t1)
        near = sorted(self.samples[max(i - 1, 0):k + 1])
        cut = int(len(near) * TRIM)
        speed = statistics.fmean(near[cut:len(near) - cut])
        return (t1 - t0 - self.probe_s(t0, t1)) * KERNEL_REF_S / speed

"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by a third or more over
periods of minutes, as other tenants load the machine, and that drift
dwarfs the changes the benchmark is meant to show.  A fixed reference
kernel, timed right before and right after every timed interval, measures
the machine's speed at that moment; :class:`CalibratedTimer` scales each
interval to the speed at which the kernel takes :data:`REFERENCE_S`.  The
kernel mixes the kinds of work the program does: strided dot products over
overlapping frames (the direct CQT), small float32 matrix products with
elementwise functions (the labeler) and interpreter-bound Python.  It is
benchmark code, so it stays the same across the versions of the program
being compared.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Median kernel time on the quiet machine named in README.md.  It only sets
# the scale of the reported times; any fixed value compares runs fairly.
REFERENCE_S = 0.045
KERNEL_RUNS = 3  # kernel runs per speed sample; the sample is their median
HOP = 2048


class SpeedProbe:
    """A fixed reference kernel and its timing."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.signal = rng.standard_normal(30 * 22050)  # a 30 s track
        self.windows = [rng.standard_normal(n)
                        for n in (8192, 4096, 2048, 1024, 512, 256)]
        self.acts = rng.standard_normal((108, 64)).astype(np.float32)
        self.weights = rng.standard_normal((64, 128)).astype(np.float32)

    def kernel(self) -> float:
        total = 0.0
        for _ in range(3):
            for window in self.windows:
                frames = as_strided(
                    self.signal,
                    shape=((len(self.signal) - len(window)) // HOP, len(window)),
                    strides=(HOP * self.signal.itemsize, self.signal.itemsize))
                total += float(np.abs(frames @ window).sum())
        for _ in range(225):
            hidden = np.tanh(self.acts @ self.weights)
            total += float((hidden @ self.weights.T).sum())
        for i in range(180_000):
            total += i * 1e-12
        return total

    def sample(self) -> float:
        """Median wall time of :data:`KERNEL_RUNS` kernel runs."""
        times = []
        for _ in range(KERNEL_RUNS):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


class CalibratedTimer:
    """Times calls at reference speed, each segment between speed samples.

    A timed call may call :meth:`split` to end a segment early: a long call
    split into steps is scaled by the samples around each step instead of
    only by those at its two ends.  Sampling time is left out of the call's
    time.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.samples = [probe.sample()]
        self._start = 0.0
        self._raw = self._scaled = 0.0

    def split(self):
        """End the current segment of the timed call with a speed sample."""
        raw = time.perf_counter() - self._start
        self.samples.append(self.probe.sample())
        speed = (self.samples[-2] + self.samples[-1]) / 2
        self._raw += raw
        self._scaled += raw * REFERENCE_S / speed
        self._start = time.perf_counter()

    def time(self, fn, *args):
        """``(raw seconds, seconds at reference speed, result)`` of ``fn``."""
        self._raw = self._scaled = 0.0
        self._start = time.perf_counter()
        result = fn(*args)
        self.split()
        return self._raw, self._scaled, result

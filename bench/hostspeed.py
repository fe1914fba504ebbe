"""Host-speed calibration for the timed loop.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent over stretches of seconds to minutes (the co-tenants'
load changes).  Every timed op is slowed by the drift, and so is a fixed
kernel that does not touch the program.  ``HostSpeed`` runs that kernel
between ops and scales each op's time by ``REFERENCE_S / local``, where
``local`` is the median kernel time near the op.  A calibrated time thus
reads as the time the op would take on a host that runs the kernel in
``REFERENCE_S``.  A change to the program moves it by the same share as
the raw time, while most of the host's drift cancels.

The kernel mixes what the program spends its time on: Python object and
dict churn with complex arithmetic, small numpy arrays, and one dense
complex product of the size of the smallest oracle window.
"""

from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

import numpy as np

#: Kernel time that defines a calibrated second: about the kernel's
#: time on a 2-vCPU Intel Xeon VM (Python 3.11.7, numpy 2.4.6, OpenBLAS
#: 0.3.31, one BLAS thread).
REFERENCE_S = 1.6e-3
#: Least seconds between two samples; a sample costs about 5 ms.
EVERY_S = 0.1
#: Kernel runs per sample; a sample is their mean.
REPEATS = 3
#: An op's local speed is the median of this many samples before its
#: start and as many after: about 1 s around a 0.1 s op, 3-4 s around a
#: 0.4 s one.  A median, because a lone sample taken in a fast or slow
#: moment of a few milliseconds says little about an op that runs for
#: hundreds.
NEIGHBOURS = 5

_RNG = np.random.default_rng(0)
_DENSE = _RNG.standard_normal((96, 96)) + 1j * _RNG.standard_normal((96, 96))
_SMALL = _RNG.standard_normal((3, 3))


def kernel() -> float:
    """Fixed work; returns a number so that nothing is optimised away."""
    amplitudes: dict[tuple[int, int, int], complex] = {}
    total = 0.0
    for i in range(600):
        key = (i & 1, i % 9, i % 5)
        amplitudes[key] = amplitudes.get(key, 0j) + complex(math.cos(i), math.sin(i))
        total += abs(amplitudes[key]) ** 2
    for _ in range(40):
        rho = _SMALL @ _SMALL.T
        total += float(np.linalg.eigvalsh(rho)[0]) + float(np.sum(np.abs(rho) ** 2))
    total += float(np.abs(_DENSE @ _DENSE).sum())
    return total


class HostSpeed:
    """Kernel samples taken between ops, and the local speed factor."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        for _ in range(20):  # warm-up: first numpy calls are slow
            kernel()

    def maybe_sample(self) -> None:
        """Take a sample if the last one is at least EVERY_S old."""
        now = perf_counter()
        if self.at and now - self.at[-1] < EVERY_S:
            return
        t0 = perf_counter()
        for _ in range(REPEATS):
            kernel()
        self.at.append(now)
        self.kernel_s.append((perf_counter() - t0) / REPEATS)

    def local(self, t: float) -> float:
        """Median kernel time of the NEIGHBOURS samples on each side of t."""
        i = bisect.bisect_left(self.at, t)
        return statistics.median(self.kernel_s[max(i - NEIGHBOURS, 0):i + NEIGHBOURS])

    def calibrate(self, t: float, seconds: float) -> float:
        """An op's time, started at t, in calibrated seconds."""
        return seconds * REFERENCE_S / self.local(t)

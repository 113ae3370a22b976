"""Host speed, measured by a fixed calibration kernel.

On the shared two-vCPU virtual machine this benchmark was defined on
(Intel Xeon, 2.1 GHz), the same code ran up to 1.7x slower from one
minute to the next, and process CPU time drifted with wall time (steal
time stayed near zero), so no choice of clock removes the drift. The
benchmark therefore times a fixed kernel between items and reports every
duration in reference seconds:

    reference seconds = wall seconds * REF_KERNEL_S / (kernel time)

The kernel mixes, in about equal parts of its time, what valdist spends
its time on: a Horner step over a 2^20-point complex array, larger than
the cache like a contour pass at its node cap; Horner waves over 64-point
arrays, dominated by numpy's per-call cost like the quadrature's waves;
and scalar Horner steps in the interpreter. In a six-minute trial that
interleaved the parts with fixed valdist calls, the spread of 25-second
medians of valdist time over kernel time was 4.5% (distribution) and 10%
(growth) with the big-array part alone, 15% and 10% with the small-array
part alone, and under 6% on both with all three (raw: 8% and 14%). The kernel does
not touch valdist, so a change to the program cannot move it.

Interpreter start-up does not follow the kernel: it is file reads, page
faults and shared-library loading, and in trial runs its bursts of
slowness did not line up with the kernel's. Set-up time is therefore
scaled by a fresh ``python -c "import numpy"`` timed just before each
``import valdist``; numpy is most of what valdist imports, and no change
to valdist can move it:

    reference seconds = valdist import * REF_NUMPY_IMPORT_S / numpy import
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The kernel's time on that machine in a quiet minute; it only fixes the
# scale, so that reference seconds read close to wall seconds there.
REF_KERNEL_S = 0.013
# A fresh interpreter's ``import numpy`` on that machine in a quiet minute.
REF_NUMPY_IMPORT_S = 0.1
# at most one kernel sample per this many seconds of measured work
EVERY_S = 0.5
SMOOTH = 5

_C = tuple(complex(k % 5 - 2, k % 3 - 1) for k in range(13))
_Z_BIG = 1.3 * np.exp(2j * np.pi * np.arange(2**20) / 2**20)
_Z_SMALL = _Z_BIG[:: 2**14].copy()


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    acc = np.full(_Z_BIG.shape, _C[-1])
    acc *= _Z_BIG
    acc += _C[-2]
    del acc
    for _ in range(150):
        acc = np.full(_Z_SMALL.shape, _C[-1])
        for c in _C[-2::-1]:
            acc = acc * _Z_SMALL + c
        float(np.sum(np.log(np.abs(acc))))
    for k in range(2000):
        z = complex(k * 1e-4, 1.0)
        s = _C[-1]
        for c in _C[-2::-1]:
            s = s * z + c
    return time.perf_counter() - t0


class HostClock:
    """Kernel samples taken between items, at most every EVERY_S seconds.

    The kernel time that applies is the median of the latest SMOOTH
    samples: one sample is noisy, and the host's speed drifts over tens of
    seconds, not over a few.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def tick(self) -> float:
        """The kernel time that applies to the work about to start."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.samples.append(kernel_seconds())
            self._last = time.perf_counter()
        return statistics.median(self.samples[-SMOOTH:])


def to_reference(seconds: float, kernel_s: float) -> float:
    return seconds * REF_KERNEL_S / kernel_s

"""Machine-speed reference, timed alongside the workload.

On the shared 2-core machine where the baseline was taken, the CPU's speed
drifts by 20-30 % over windows of seconds to tens of minutes.  Interpreter
work and LAPACK drift together, CPU time drifts like wall time, and there
are no hardware counters.  So the benchmark times a fixed kernel of the same
kinds of work between ops, all through a run: a Python loop, small SVDs and
eigh calls, and one 128x128 SVD.  End-to-end times are reported at reference
speed, scaled by ``REFERENCE_S / kernel time`` (see ``Speed.factor``).
Reference speed is the speed at which the kernel takes ``REFERENCE_S``.  The
raw values are printed too.

The kernel uses numpy only, never the library.  It binds the numpy
functions at import, before the benchmark wraps ``numpy.linalg``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.010
TRIM = 0.2

_rng = np.random.default_rng(20261017)
_SMALL = [_rng.normal(size=(6, 6)) + 1j * _rng.normal(size=(6, 6)) for _ in range(40)]
_HERM = [m + m.conj().T for m in _SMALL]
_BIG = _rng.normal(size=(128, 128)) + 1j * _rng.normal(size=(128, 128))
_svd, _eigh = np.linalg.svd, np.linalg.eigh


def kernel_s() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i % 7
    for m, h in zip(_SMALL, _HERM):
        _svd(m)
        _eigh(h)
    _svd(_BIG)
    return time.perf_counter() - start


class Speed:
    """Kernel timings taken at most every ``every_s`` seconds."""

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.samples: list = []
        self.spent_s = 0.0
        self._due = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_s())
        self.spent_s += time.perf_counter() - start
        self._due = time.perf_counter() + self.every_s

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def factor(self) -> float:
        """Multiply a time by this to get it at reference speed.

        The machine switches between faster and slower states within a run,
        and a workload's time adds up over all of them, so the kernel time
        is a mean, not a median.  The fastest and slowest ``TRIM`` of the
        samples are left out, which drops one-off stalls.
        """
        s = sorted(self.samples)
        cut = int(len(s) * TRIM)
        return REFERENCE_S / statistics.fmean(s[cut:len(s) - cut])

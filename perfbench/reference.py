"""Reference kernels: the host's current speed, sampled next to timed work.

The host this benchmark is run on switches speed by up to ~1.9x for seconds
to minutes at a time (see README.md, Noise).  Raw wall times of one run then
say more about the host's state than about qsass.  So every timed item (a
grid cell, a write, a replayed trace, a set-up) is bracketed by runs of a
fixed kernel that calls no qsass code, and the benchmark reports

    reference seconds = wall seconds * NOMINAL_S / kernel seconds

where the kernel time is the mean of the samples just before and just after
the item.  A reference second is a wall second on a host where the kernel
takes NOMINAL_S; a change to qsass moves it exactly as it moves wall time.

Two kernels, because the host's slow state does not slow every kind of work
alike: ``python`` (a loop of tiny numpy calls and float arithmetic, which is
what most of a cell of a small problem is) slows by ~1.9x, ``blas`` (n=256
matrix-vector products and a dense ``eigvalsh``) by ~1.2x.  Each workload
names the kernel whose work its cells resemble.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 2e-3
WARMUP_RUNS = 5

_rng = np.random.default_rng(20230218)
_SMALL = _rng.standard_normal((4, 4))
_SMALL_X0 = _rng.standard_normal(4)
_DENSE = _rng.standard_normal((256, 256))
_DENSE = _DENSE @ _DENSE.T
_DENSE_X0 = _rng.standard_normal(256)


def _python_kernel():
    x = _SMALL_X0.copy()
    total = 0.0
    for i in range(400):
        x = _SMALL @ x
        x /= np.linalg.norm(x)
        total += float(x[0]) * 0.5 + i
    return total


def _blas_kernel():
    x = _DENSE_X0.copy()
    for _ in range(40):
        x = _DENSE @ x
        x /= np.linalg.norm(x)
    return float(np.linalg.eigvalsh(_DENSE[:128, :128])[0] + x[0])


KERNELS = {"python": _python_kernel, "blas": _blas_kernel}


class Reference:
    """Samples one kernel's time and turns wall times into reference ones."""

    def __init__(self, kind):
        self.kind = kind
        self._kernel = KERNELS[kind]
        self.history = []
        for _ in range(WARMUP_RUNS):
            self._kernel()

    def sample(self, runs=1):
        """Median wall time of ``runs`` back-to-back kernel runs."""
        clock = time.perf_counter
        times = []
        for _ in range(runs):
            started = clock()
            self._kernel()
            times.append(clock() - started)
        self.history += times
        return statistics.median(times)

    @staticmethod
    def scale(before, after):
        """Factor from wall to reference seconds for an item run between
        kernel samples ``before`` and ``after``."""
        return NOMINAL_S / (0.5 * (before + after))

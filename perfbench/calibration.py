"""Fixed reference kernels that measure the host's speed during a run.

The benchmark's host is shared, and its speed drifts by tens of percent over
minutes, far more than a run can average out.  After each timed step, a run
times its workload's kernel for ``SHARE`` of the step's wall time.  The
kernels are benchmark code and never change with the program.  Each does the
kind of work its workloads do: least-squares solves, weighted cross-products
and elementwise NumPy work, on arrays of 500 rows (``small_arrays``, like the
per-covariate fits) or 20,000 rows (``tall_arrays``, like fits on a tall
design).  The host's speed changes differently for the two kinds of work, so
each workload uses the kernel whose work it resembles (see README.md).
Multiplying a run's times by the kernel's reference time over its mean time
in the run gives its times on a host where the kernel takes its reference
time.

The mean, not the median, is used because a step's wall time is itself a
mean over the host's speed while it ran.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SHARE = 0.2  # kernel time per second of timed step

_rng = np.random.default_rng(20211216)
_SMALL = (_rng.standard_normal((500, 4)), _rng.standard_normal(500))
_TALL = (_rng.standard_normal((20_000, 8)), _rng.standard_normal(20_000))


def _fits(x, y, repeats: int) -> float:
    acc = 0.0
    for _ in range(repeats):
        beta = np.linalg.lstsq(x, y, rcond=None)[0]
        resid = y - x @ beta
        w = 1.0 / (1.0 + np.exp(-resid))
        acc += float(((x * w[:, None]).T @ x)[0, 0])
    return acc


def small_arrays() -> float:
    return _fits(*_SMALL, 500)


def tall_arrays() -> float:
    return _fits(*_TALL, 6)


# Kernel name -> (kernel, its time in seconds on the host the bounds were set on: 2 cores, shared).
KERNELS = {"small_arrays": (small_arrays, 0.03), "tall_arrays": (tall_arrays, 0.016)}


class HostSpeed:
    """Kernel times taken through a run, and the factor that scales the run's times."""

    def __init__(self, kernel: str):
        self.kernel, self.reference_s = KERNELS[kernel]
        self.kernel_s: list[float] = []

    def sample(self, step_s: float) -> None:
        """Time the kernel, at least once, for ``SHARE`` of a step that took ``step_s``."""
        spent = 0.0
        while True:
            start = time.perf_counter()
            self.kernel()
            self.kernel_s.append(time.perf_counter() - start)
            spent += self.kernel_s[-1]
            if spent >= SHARE * step_s:
                return

    def factor(self) -> float:
        return self.reference_s / statistics.fmean(self.kernel_s)

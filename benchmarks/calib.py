"""Machine-speed calibration: a fixed kernel timed all through a run.

The benchmark's host shares its cores.  On 2 shared vCPUs the same unit ran
anywhere from 1x to 2.3x its fastest time, in phases lasting seconds to
minutes, so the run-to-run spread of raw wall time was wider than any useful
regression bound.  The kernel below does work of the same kind as the
library (interpreted Python, numpy calls on small arrays, 4x4 linear
algebra) and does not depend on it.  A run times it between its units and
rescales its raw medians (unit time, set-up time) by
``REFERENCE_S / median(kernel time)``: the host's drift largely cancels,
while a change in the library's own speed passes through one for one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the machine the benchmark was defined on (2 vCPUs,
# x86-64 at 2.1 GHz, Python 3.11, numpy 2.4) while its cores were quiet, so
# rescaled times read as wall seconds on that machine at its quiet speed.
REFERENCE_S = 0.025
REPEATS = 3


def _kernel() -> float:
    total = 0.0
    for i in range(100_000):
        total += (i % 7) * 0.5
    u = np.linspace(0.0, 1.0, 512)
    for _ in range(750):
        u = 0.5 * (np.roll(u, 1) + np.roll(u, -1)) - 0.01 * u
    m = np.eye(4) + 0.1 * np.arange(16.0).reshape(4, 4)
    for _ in range(750):
        m = np.linalg.inv(m) + np.eye(4)
    return total + float(u.sum() + m.sum())


def kernel_seconds() -> float:
    """Median time of ``REPEATS`` runs of the kernel."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rescale(raw_s: float, kernel_s: list[float]) -> float:
    """``raw_s`` at the reference speed, given the kernel times of the run."""
    return raw_s * REFERENCE_S / statistics.median(kernel_s)

"""Calibration kernel that measures the host's current speed.

On a shared virtual machine the CPU speed a process gets drifts with the
neighbours' load: a fixed loop measured up to 2x slower from one second to
the next on the 2-vCPU host this benchmark was written on, in CPU time as
well as wall time.  The measuring process therefore samples a short fixed
kernel before, during and after every call, and scales the call's time by
``REFERENCE_S / mean kernel time``: times are reported at the speed where
the kernel takes REFERENCE_S.  The kernel mixes the three kinds of work
secnet does (interpreter-bound Python, numpy sampling and sorting, scipy
quadrature over log-gamma products) and calls nothing in secnet, so a
change to the library cannot move it.

Set-up time is measured before numpy and scipy are imported, so it is
scaled with a pure-Python kernel instead; importing this module imports
neither.
"""

from __future__ import annotations

import signal
import statistics
import time

# Kernel times at the reference speed; on the host above the mixed kernel
# took 1.4-3 ms and the pure-Python one 0.8-1.6 ms.
REFERENCE_S = 0.0012
PYTHON_REFERENCE_S = 0.0008
# Period of the in-call samples; each costs about one kernel time.
SAMPLE_INTERVAL_S = 0.05
BRACKET_RUNS = 3



def _python_work(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def python_kernel_s() -> float:
    """Run the pure-Python kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    _python_work(12000)
    return time.perf_counter() - start


def kernel_s() -> float:
    """Run the mixed kernel once and return its wall time in seconds."""
    import numpy as np
    from scipy.integrate import quad
    from scipy.special import loggamma

    shifts = np.array([0.5, 1.5, 2.5])
    start = time.perf_counter()
    _python_work(4000)
    draws = np.random.default_rng(12345).standard_gamma(2.0, 5000)
    draws.sort()
    quad(lambda t: float(np.exp(loggamma(shifts + 1j * t).sum().real)), -8.0, 8.0,
         limit=50, epsrel=1e-10)
    return time.perf_counter() - start


class SpeedMeter:
    """Samples a kernel around and, on a timer signal, during a block.

    ``overhead_s`` is the kernel time spent inside the block, which the
    caller subtracts from the block's time; ``speed`` is the kernel's
    reference time over its mean time, above 1 when the host runs faster
    than reference.  Must be used from the main thread.
    """

    def __init__(self, kernel=kernel_s, reference_s: float = REFERENCE_S):
        self.kernel = kernel
        self.reference_s = reference_s
        self.samples: list[float] = []
        self.inside: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.inside.append(self.kernel())

    def __enter__(self) -> "SpeedMeter":
        self.samples.extend(self.kernel() for _ in range(BRACKET_RUNS))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(self.kernel() for _ in range(BRACKET_RUNS))

    @property
    def overhead_s(self) -> float:
        return sum(self.inside)

    @property
    def speed(self) -> float:
        return self.reference_s / statistics.fmean(self.samples + self.inside)

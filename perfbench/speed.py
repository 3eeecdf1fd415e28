"""Machine-speed reference: a fixed kernel timed during every measurement.

On a shared machine the speed of a core drifts with the other tenants' load,
in phases that can last longer than a run and shift a 30 s operation by a
third.  The kernel is cyclic lasso coordinate descent on a fixed problem,
the kind of work the program spends its time in, sized like the workload's
own lasso subproblems, so it slows down with the program.  `paired` samples
it in short windows before and after a call and, through an interval timer,
every SAMPLE_EVERY_S during the call.  A call's time divided by the kernel's
mean time over those samples stays steady when the machine's speed changes.
`at_reference_speed` turns that ratio back into seconds with the kernel's
time at the reference speed, NOMINAL_KERNEL_S.
"""

from __future__ import annotations

import functools
import signal
import time

import numpy as np

SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.15
_STEPS = 300  # coordinate steps per kernel call, about 1 ms

# fastest kernel call time per problem size, measured on the 2-vCPU cloud VM
# (Python 3.11, numpy 2.4) the benchmark was defined on; fixed, so that
# results stay comparable across commits
NOMINAL_KERNEL_S = {10: 7.9e-4, 50: 8.1e-4, 200: 9.1e-4}


@functools.lru_cache(maxsize=None)
def _problem(size: int):
    rng = np.random.default_rng(size)
    a = rng.normal(size=(size, 2 * size))
    return a @ a.T, a @ rng.normal(size=2 * size)


def kernel(size: int) -> float:
    """_STEPS soft-threshold coordinate steps on the fixed size-`size` lasso."""
    gram, corr = _problem(size)
    w = np.zeros(size)
    grad = -corr
    for step in range(_STEPS):
        j = step % size
        z = gram[j, j] * w[j] - grad[j]
        new = np.sign(z) * max(abs(z) - 0.05, 0.0) / gram[j, j]
        if new != w[j]:
            grad += (new - w[j]) * gram[:, j]
            w[j] = new
    return float(w.sum())


class _Samples:
    """Kernel calls made while a measurement is open."""

    def __init__(self, size: int):
        self.size = size
        self.kernel_s = 0.0  # time spent inside kernel calls
        self.calls = 0
        self.in_call_s = 0.0  # kernel time taken out of the measured call

    def window(self, seconds: float) -> None:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.sample()

    def sample(self) -> float:
        start = time.perf_counter()
        kernel(self.size)
        spent = time.perf_counter() - start
        self.kernel_s += spent
        self.calls += 1
        return spent

    def on_timer(self, signum, frame) -> None:
        self.in_call_s += self.sample()


def paired(fn, size: int):
    """Run fn() with the size-`size` kernel sampled around and during it.

    Returns (result, wall_s, kernel_s): wall_s is fn's wall time without the
    kernel calls made inside it, kernel_s the kernel's mean call time.
    """
    samples = _Samples(size)
    samples.window(WINDOW_S)
    previous = signal.signal(signal.SIGALRM, samples.on_timer)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    samples.window(WINDOW_S)
    return result, wall - samples.in_call_s, samples.kernel_s / samples.calls


def at_reference_speed(wall_s: float, kernel_s: float, size: int) -> float:
    """wall_s as it would read with the kernel at its nominal speed."""
    return wall_s / kernel_s * NOMINAL_KERNEL_S[size]

"""Machine-speed probe: time ops at a fixed reference speed of the host.

On a shared host the speed of this process's CPU changes by 20-40% within
seconds and in phases of minutes, as other tenants load the machine; no
median inside one run removes that.  While an op runs, a SIGALRM timer
interrupts it every ``INTERVAL_S`` seconds and times a fixed pure-Python
kernel that does not depend on the program under test.  The kernel's
mean time over the op, without its slowest fifth of samples (a sample the
scheduler preempts reads many times too long and would swamp the mean),
measures how fast the machine ran during the op, and

    reference_s = (wall_s - probe_s) * REFERENCE_KERNEL_S / mean_kernel_s

is the op's time at the speed at which the kernel takes
``REFERENCE_KERNEL_S``.  A change in the program moves ``reference_s``
fully, since the kernel stays the same; a change in the host's speed
cancels, to the extent that the op slows as the kernel does.  The probes
cost about 1% of an op, and their own time is taken out of ``wall_s``.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

INTERVAL_S = 0.02
KERNEL_LOOPS = 3000
TRIM = 0.2  # share of the slowest kernel samples left out of the mean
# The kernel's time at the reference speed: about its typical time on the 2-vCPU
# Xeon VM (Python 3.11) where the benchmark was set up, so that reference
# seconds read close to wall seconds there.
REFERENCE_KERNEL_S = 2.5e-4


def kernel() -> int:
    s = 0
    for i in range(KERNEL_LOOPS):
        s += i * i % 7
    return s


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class SpeedProbe:
    """Samples the kernel's time while a block runs (main thread only)."""

    def __init__(self):
        self.samples: list[float] = []
        self.in_block: float = 0.0

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(time_kernel())

    @contextmanager
    def sampling(self):
        """Sample during the block; one sample before and one after it too.

        The two outer samples fall outside the block, so a caller that
        times inside the ``with`` does not count them, and a block shorter
        than one interval still gets a speed.
        """
        self.samples = [time_kernel()]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.in_block = sum(self.samples[1:])
            self.samples.append(time_kernel())

    def speed_factor(self) -> float:
        """Reference kernel time over the trimmed mean kernel time of the last block."""
        kept = sorted(self.samples)[:max(1, round(len(self.samples) * (1 - TRIM)))]
        return REFERENCE_KERNEL_S * len(kept) / sum(kept)

    def reference_seconds(self, wall_s: float) -> float:
        """``wall_s`` of the last block, less its probes, at reference speed."""
        return (wall_s - self.in_block) * self.speed_factor()

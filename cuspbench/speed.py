"""The machine's speed while the benchmark measures, from a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, as neighbours load it.  Time spent
with the core taken away (steal) is left out by measuring CPU time of the
thread instead of wall time.  What remains is drift in how fast the core
runs.  To take that out as well, ``SpeedSampler`` interrupts the timed
trajectories every ``PERIOD_S`` of CPU time and runs ``reference_kernel``,
fixed pure-Python work of the same kind as the walk (big-int division,
mediant updates, Fractions, small-int loops) that no change to the package
can touch.  Its CPU time is taken off the trajectory's, and the mean kernel
time around each trajectory gives that trajectory's speed factor,
``REFERENCE_KERNEL_S`` over that mean.  A time multiplied by it reads as if
measured at the reference speed (a 2-vCPU KVM Xeon guest, Python 3.11,
unloaded).
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

REFERENCE_KERNEL_S = 0.002  # CPU time of one reference_kernel call at the reference speed
PERIOD_S = 0.06  # CPU time between kernel calls while sampling

_THETAS = [random.Random(f"cuspbench/speed/{k}").getrandbits(3000) | 1 for k in range(2)]
_STEPS = 300


def reference_kernel() -> int:
    """Fixed work: a Stern-Brocot descent toward two fixed 3000-bit rationals."""
    acc = 0
    for n in _THETAS:
        d = 1 << 3000
        pl, ql, pr, qr = 0, 1, 1, 0
        for step in range(_STEPS):
            if not d:
                break
            a, r = divmod(n, d)
            pl, ql, pr, qr = pr, qr, a * pr + pl, a * qr + ql
            if step % 16 == 1:
                acc ^= hash(Fraction(pr, qr) - Fraction(pl, ql))
            for j in range(8):
                acc += (j * a) % 7
            n, d = d, r
    return acc


def kernel_s() -> float:
    """CPU time of one reference_kernel call, with the collector held off
    so that none of the caller's garbage is collected on its clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        reference_kernel()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Kernel times taken at even CPU-time intervals inside ``sampling()``."""

    def __init__(self):
        self.samples = []
        self.blocks = []  # (first, end) indices into samples of each sampling() block
        self.interrupt_s = 0.0  # kernel time inside the current sampling() block

    def _on_timer(self, signum, frame):
        t0 = time.thread_time()
        self.samples.append(kernel_s())
        self.interrupt_s += time.thread_time() - t0

    @contextmanager
    def sampling(self):
        """Interrupt the block every PERIOD_S of CPU time to run the kernel.

        ``interrupt_s`` is the kernel's CPU time inside the block, to be taken
        off the block's own.
        """
        self.interrupt_s = 0.0
        first = len(self.samples)
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
            self.blocks.append((first, len(self.samples)))

    def factors(self) -> list:
        """One factor per sampling() block, in order: the block's CPU time
        times its factor is the time at the reference speed.  It comes from
        the kernel calls inside the block and the one on each side of it, so
        that a block shorter than PERIOD_S has one too."""
        return [
            REFERENCE_KERNEL_S / statistics.fmean(self.samples[max(first - 1, 0):end + 1])
            for first, end in self.blocks
        ]

"""The machine's speed during a run, and a clock that leaves out measuring it.

On a shared machine the speed of every operation moved together, by up to
1.8x within seconds: over four minutes of back-to-back int8 batches on the
wide net, the median batch of 8-s stretches ranged from 27 to 47 ms, with
no steal time and CPU time equal to wall time.  Medians within a run cannot
remove that.  So while the timed operations run, a fixed piece of work that
uses no mixq code (the probe) is timed every EVERY_S seconds from a SIGALRM
handler, also inside long operations, and each operation is scaled by
REFERENCE_S / the median probe time within WINDOW_S of it.

In three such recordings of batches on the demo, wide and conv nets, cut
into 20-s stretches, scaling each batch by the probes near it spread the
stretches' median batch times by 0.01-0.05 of their median (quartile
distance), and by 0.11 for the 4x32 demo net's 0.25-ms batches in the most
disturbed recording.  Scaling by each stretch's median probe gave
0.01-0.16, and no scaling 0.07-0.31.  Stretches of 8 s of work spread by
0.05-0.08 when scaled by the probes inside them, by 0.08-0.12 when scaled
by the run's median probe, and by 0.08-0.21 when scaled only by probes
before and after them.

The probe mixes the three kinds of work mixq's operations do: an fp32 BLAS
matmul, an int64 matmul outside BLAS and an interpreted Python loop, about
0.8 ms each.  ``clock`` stops while the probe runs, so the operations'
times leave it out.

Imported only after the BLAS thread cap is in place, since it imports numpy.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

EVERY_S = 0.1
WINDOW_S = 1.0
# Median probe time on a 2-core x86-64 virtual machine (OpenBLAS, one
# thread): the speed the timed metrics are scaled to.
REFERENCE_S = 0.0025


class Unscalable(Exception):
    """No probe ran near an operation."""


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((128, 512)).astype(np.float32)
        self.b = rng.standard_normal((512, 512)).astype(np.float32)
        self.xi = rng.integers(-127, 128, (32, 128))
        self.wi = rng.integers(-127, 128, (128, 160))
        self.starts: list[float] = []  # on ``clock``
        self.times: list[float] = []
        self.spent = 0.0  # seconds spent in the probe so far

    def clock(self) -> float:
        """perf_counter, less the time spent in the probe."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no probe ran in between
                return now - spent

    def _run(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.a @ self.b
        self.xi @ self.wi
        total = 0
        for i in range(15000):
            total += i
        dt = time.perf_counter() - t0
        self.starts.append(t0 - self.spent)
        self.times.append(dt)
        self.spent += dt

    @contextlib.contextmanager
    def running(self):
        """Runs the probe every EVERY_S seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, wall: float) -> float:
        """``wall`` at the reference speed, judged by the probes run within
        WINDOW_S of the operation from ``start`` to ``start + wall`` on ``clock``."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + wall + WINDOW_S)
        if lo == hi:
            raise Unscalable(f"no speed probe within {WINDOW_S} s of an operation")
        return wall * REFERENCE_S / statistics.median(self.times[lo:hi])


# One per process, as the signal handler it runs from is.
probe = Probe()

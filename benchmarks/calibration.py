"""Host-speed calibration for the end-to-end timings.

On a shared 2-core box the host's speed drifts by a third or more over
minutes as neighbouring load comes and goes, far more than the run-to-run
noise a benchmark bound can absorb.  The drift slows every kind of work
alike, so the benchmark interleaves a fixed kernel that does not touch
``oxcim`` with the timed calls, takes the median rate of that kernel over
the run, and reports its timings rescaled to a reference host on which the
kernel runs ``REFERENCE_RATE`` times per second.

The kernel mixes what the workloads do: transcendental functions over a
large array (as ``ndtri`` in the keyed noise), a random gather and a stream
over arrays larger than the caches (as the tile reads), a small float64
matrix product (as training) and, for about half its time, an interpreter
loop of small numpy calls (window views, ``isin``, as the digital layer
walk).  Array work alone tracked the drift of the hardware workloads but
left that of ``ideal-tnn`` about half uncorrected.  A change to ``oxcim`` leaves the kernel's
rate alone, so it moves the rescaled timings in full.
"""

import statistics
import time

import numpy as np
from scipy.special import ndtri

# Kernel runs per second on the reference host: the median on a 2-core
# Intel Xeon virtual machine at 2.0 GHz with one BLAS thread.
REFERENCE_RATE = 22.0


class Calibration:
    def __init__(self):
        g = np.random.default_rng(0)
        self._u = g.random(150_000) * 0.98 + 0.01
        self._big = g.random(1_000_000)
        self._idx = g.integers(0, self._big.size, 150_000)
        self._a = g.random((300, 200))
        self._b = g.random((200, 64))
        self._small = g.random(64)
        self._maps = g.random((2, 8, 8))
        self.rates = []

    def _kernel(self):
        acc = 0.0
        for _ in range(3):
            acc += float(ndtri(self._u).sum())
            acc += float((self._big[self._idx] * 1.5
                          + self._big[:self._idx.size]).sum())
            acc += float((self._a @ self._b).sum())
            for i in range(100):
                win = np.lib.stride_tricks.sliding_window_view(
                    self._maps, (5, 5), axis=(1, 2))
                acc += float(win.reshape(-1)[:10].sum())
                acc += float(np.isin(self._small > 0.5, (0, 1)).sum())
                acc += float(np.maximum(self._small, 0.5)[i % 64])
        return acc

    def sample(self):
        """Time one kernel run and record its rate."""
        t0 = time.perf_counter()
        self._kernel()
        self.rates.append(1.0 / (time.perf_counter() - t0))

    def speed(self):
        """Host speed over the run relative to the reference host."""
        return statistics.median(self.rates) / REFERENCE_RATE

"""A fixed reference kernel, timed beside every run to track the host's speed.

On a shared host the speed of one CPU drifts by tens of percent over seconds
to minutes. The kernel mixes the kinds of work starkchain's experiments do:
a Python loop over small matrix products, a sparse matrix-vector loop and a
dense Hermitian eigensolve. Its arrays take about 1 MB, so it leaves the
workload's peak memory alone. It does not use starkchain, so no change to
the program moves it. run.py divides each run's wall time by the mean of the
kernel times measured just before and just after it, and scales the ratio by
``REFERENCE_S``.
"""

import time

import numpy as np
import scipy.sparse as sp

# Median time of one kernel call on the 2-vCPU Intel Xeon host the benchmark
# was sized on (one BLAS thread). It only sets the scale of the normalised
# times: a value in seconds reads as the time the run would take on that
# host at that speed.
REFERENCE_S = 0.12


class ReferenceKernel:
    """Fixed inputs built once; ``measure()`` times calls of ``work()``."""

    def __init__(self):
        rng = np.random.default_rng(20070885)
        self.small = rng.standard_normal((8, 8)) + 0j
        h = rng.standard_normal((300, 300))
        self.herm = h + h.T
        self.sparse = sp.random(4096, 4096, density=0.002, random_state=rng,
                                format="csr") * (1 + 0j)
        self.vec = rng.standard_normal(4096) + 0j

    def work(self):
        x = self.small
        for _ in range(5000):
            x = self.small @ x
            x = x / np.abs(x).max()
        for _ in range(3):
            np.linalg.eigh(self.herm)
        v = self.vec
        for _ in range(700):
            v = self.sparse @ v
            v = v * (1.0 / np.abs(v).max())

    def measure(self, reps=1):
        """Wall time of one call of the kernel: the mean over ``reps`` calls."""
        t0 = time.perf_counter()
        for _ in range(reps):
            self.work()
        return (time.perf_counter() - t0) / reps

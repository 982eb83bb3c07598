"""Host speed: a fixed reference kernel timed between solves.

On a shared host the same code runs up to about 1.5 times slower for tens of
seconds at a time (another tenant on the same physical core). A sparse LU
and a pure-Python loop slow down by the same factor, so a run-to-run spread
of 20-30% in raw wall time mostly measures the neighbours, not ricadi.

``HostSpeed`` times a small kernel that does not touch ricadi between
solves: the thin QR factorization of a 6400-by-40 block and its Gram
product, twice (about 25 ms). That is the kind of tall-skinny dense work a
solve does besides its sparse LUs, and of the kernels tried (sparse LU,
small dense QR, Python loop, this one) it followed the solves' slow-downs
most closely. A solve's slow-down factor is the mean duration of the
reference runs just before and just after it, over ``REF_NOMINAL_S``; the
benchmark divides the solve's wall time by that factor. The result is the
solve's time at the reference speed: on a quiet host the factor is close to
1 and the adjusted time close to the wall time. A change to ricadi moves
the adjusted time as it moves the wall time at a fixed host speed.
"""

import bisect
import statistics
import time

import numpy as np

# Duration of reference() on a quiet 2-vCPU Xeon KVM guest with one BLAS
# thread. Only ratios between runs matter; the constant fixes the scale.
REF_NOMINAL_S = 0.025

# Least time between two reference runs: solves shorter than this share
# their reference runs with their neighbours, which bounds the overhead to
# about 5% on the batch of small problems.
MIN_GAP_S = 0.5


class HostSpeed:
    def __init__(self):
        self._block = np.random.default_rng(0).standard_normal((6400, 40))
        self.starts = []
        self.durations = []
        self.reference()  # first calls pay lazy set-up

    def reference(self):
        for _ in range(2):
            Q, _ = np.linalg.qr(self._block)
            Q.T @ self._block

    def sample(self):
        t0 = time.perf_counter()
        self.reference()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def maybe_sample(self):
        """Time the reference unless it ran less than MIN_GAP_S ago."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= MIN_GAP_S:
            self.sample()

    def factor(self, start, end):
        """Slow-down of the host over [start, end] relative to REF_NOMINAL_S.

        Uses the last reference run that started before ``start`` and the
        first that started after ``end``, whichever exist.
        """
        i = bisect.bisect_right(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        near = self.durations[max(i - 1, 0):i] + self.durations[j:j + 1]
        if not near:
            raise ValueError("no reference run to compare with")
        return statistics.fmean(near) / REF_NOMINAL_S

    def median_factor(self):
        return statistics.median(self.durations) / REF_NOMINAL_S

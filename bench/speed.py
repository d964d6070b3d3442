"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine the speed at which this process executes drifts
with the host's load: on the 2-vCPU machine the bounds were set on, a fixed
loop of interpreter work ran up to 1.9 times slower from one minute to the
next, and pass times drifted with it. The benchmark therefore times a fixed chunk
of pure-Python work (stdlib only, so no change to qvbs can alter it) every
INTERVAL_S seconds from a SIGALRM handler during each pass, and reports
every time rescaled to a reference speed at which one chunk takes
REF_CHUNK_S: each stretch between samples is scaled by REF_CHUNK_S over the
local median chunk time, and the chunks themselves are left out. A set-up
time is rescaled by the median of a burst of chunks timed right after it.
The raw times are printed beside the result.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
REF_CHUNK_S = 0.0008
CHUNK_N = 3000


def chunk():
    """Fixed interpreter work: dict updates, int and Fraction arithmetic."""
    d = {}
    f = Fraction(1)
    for i in range(CHUNK_N):
        k = i & 15
        d[k] = d.get(k, 0) + i * i
        if i % 50 == 0:
            f = f * Fraction(i + 1, i + 2)
    return f


def burst(n=40):
    """Median time of n chunks run back to back."""
    times = []
    for _ in range(n):
        t = time.perf_counter()
        chunk()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class SpeedProbe:
    """Chunk timings taken every INTERVAL_S while started."""

    def __init__(self):
        self.times = []   # chunk start, perf_counter seconds
        self.costs = []   # chunk duration, seconds

    def _sample(self, signum, frame):
        t = time.perf_counter()
        chunk()
        self.times.append(t)
        self.costs.append(time.perf_counter() - t)

    def start(self):
        self._sample(None, None)  # so a pass shorter than INTERVAL_S has one
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # local chunk time around each sample: median of it and four each side
        c = self.costs
        self._local = [statistics.median(c[max(0, i - 4):i + 5])
                       for i in range(len(c))]

    def scaled(self, t0, t1):
        """Duration of [t0, t1] at the reference speed, chunks excluded.

        The interval is cut at the samples inside it; each piece is scaled
        by the local chunk time of the sample that ends it (the last piece
        by that of the next sample, or of the last one taken)."""
        i0 = bisect.bisect_left(self.times, t0)
        i1 = bisect.bisect_left(self.times, t1)
        last = len(self.times) - 1
        total, start = 0.0, t0
        for i in range(i0, i1):
            total += (self.times[i] - start) / self._local[i]
            start = self.times[i] + self.costs[i]
        total += (t1 - start) / self._local[min(i1, last)]
        return total * REF_CHUNK_S

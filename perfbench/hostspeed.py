"""Host-speed probe: a fixed kernel timed on an interval timer.

The benchmark host is shared, and its speed moves by up to 2x over tens
of seconds with the load of its neighbours. This shows in user CPU time
as much as in wall time. A run of the benchmark lasts well under a
minute, so raw timings of two runs differ by more than any useful bound.

The probe measures that speed while the program runs. Every
``interval`` seconds a ``SIGALRM`` handler runs :func:`kernel`, a fixed
mix of small numpy operations and Python object work, like the
pipeline's. The handler records how long the kernel took. The
benchmark's clock, :meth:`HostSpeed.clock`, stops while the handler
runs, so the probe adds nothing to any measured interval.

Samples come at a fixed rate in time, so the mean of ``1 / t`` over
the samples of an interval is the host's mean speed over it, and fixed
work takes time in inverse proportion to that speed. A measured
interval is therefore scaled by ``REFERENCE_S * mean(1 / t)``: the
result is seconds on a host where the kernel takes ``REFERENCE_S``,
and the same work reads the same at any load. On 22 cold requests run
four times, this left 1.6-1.9 % of variation between passes (6 % raw;
5 % with the median kernel time instead).
"""

import bisect
import signal
from statistics import harmonic_mean
from time import perf_counter

import numpy as np

#: Kernel time that defines the reference host speed. It is about the
#: median on the 2-CPU host where the benchmark was defined, so scaled
#: and raw seconds are close there.
REFERENCE_S = 0.0017
#: Seconds between kernel samples. With the kernel's ~1.5 ms this
#: costs ~3 % of the run, all of it outside the benchmark's clock.
INTERVAL_S = 0.05
#: Samples up to this many seconds before or after an interval count,
#: so that a short request still has ~20 samples. The host's speed moves
#: within seconds, so wider windows track it less well.
WINDOW_S = 0.5
#: An interval with fewer samples in its window uses this many nearest.
MIN_SAMPLES = 5

_A = np.arange(60.0).reshape(10, 6)
_W = np.full((6, 5), 0.1)


def kernel(rounds=100):
    """Fixed work: small matmuls and activations, dicts and sorts."""
    total = 0.0
    for _ in range(rounds):
        total += float(np.tanh(_A @ _W).sum())
        squares = {j: (j, j * j) for j in range(40)}
        total += len(sorted(squares, key=lambda k: -k))
    return total


class HostSpeed:
    """Context manager sampling the host's speed while it is active."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.busy_s = 0.0
        self.times = []      # clock() at each sample
        self.kernel_s = []   # kernel duration of each sample
        self._previous = None

    def clock(self):
        """perf_counter() minus the time spent sampling."""
        while True:
            busy = self.busy_s
            now = perf_counter()
            if busy == self.busy_s:  # no sample ran in between
                return now - busy

    def _sample(self, signum, frame):
        at = self.clock()
        start = perf_counter()
        kernel()
        elapsed = perf_counter() - start
        self.times.append(at)
        self.kernel_s.append(elapsed)
        self.busy_s += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def kernel_time(self, start, end):
        """Harmonic mean kernel time near the clock interval
        [start, end]: the kernel time at the mean speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            middle = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2,
                            len(self.times) - MIN_SAMPLES))
            hi = min(len(self.times), lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("host-speed probe took no samples")
        return harmonic_mean(self.kernel_s[lo:hi])

    def scale(self, seconds, start, end):
        """``seconds`` measured over [start, end], at reference speed."""
        return seconds * REFERENCE_S / self.kernel_time(start, end)

"""Host speed, sampled while a pass runs, and times corrected for it.

The benchmark runs on a few cores of a shared host. How fast those cores
run Python swings by a third or more, over periods from under a second
to minutes, and the swing slows the calibration loop below about as much
as it slows the package. So while a pass runs, a SIGALRM handler times that
fixed loop every SAMPLE_EVERY_S of wall time; the handler runs between
the package's own bytecodes, and its time is taken out of the op it
interrupted. An op's time is then scaled by the host's mean speed near
it, NOMINAL_NS over the harmonic mean of the loop times sampled within
WINDOW_NS of the op: every time the benchmark reports reads as on a host
where the loop takes NOMINAL_NS. The harmonic mean is the loop's mean
speed; unlike the median it keeps a stall the op sat through in
proportion. On 2 vCPUs of a shared Intel Xeon, the time of one cli-mix
cycle (about 70 ms) followed this harmonic mean with a log-log slope of
0.97, and the median with a slope of 0.84. A change to the package
moves the op times and not the loop, so it shows in full.

Only `time`, `signal`, `array` and `bisect` are imported here, none of
which the package imports, so the worker can calibrate before it times
the import.
"""

import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

#: loop time of the reference host speed; reported times read as on it
NOMINAL_NS = 80_000
SAMPLE_EVERY_S = 0.005
#: samples this close to an op's start or end set its speed
WINDOW_NS = 20_000_000


def _step(x):
    return x * x % 7


def calibration_loop() -> int:
    """Nanoseconds one run of a fixed interpreter-bound loop takes now."""
    t0 = perf_counter_ns()
    total, seen = 0, {}
    for i in range(600):
        total += _step(i)
        seen[i & 15] = total
    return perf_counter_ns() - t0


def speed_factor(samples) -> float:
    """NOMINAL_NS over the harmonic mean of some calibration loop times."""
    return NOMINAL_NS * sum(1 / took for took in samples) / len(samples)


class HostSpeed:
    """Samples the calibration loop on a wall-clock timer while active.

    Each sample keeps its start (`at`), the loop's time (`took`) and the
    whole handler's time (`spent`); the arrays are in time order.
    """

    def __init__(self):
        self.at = array("q")
        self.took = array("q")
        self.spent = array("q")

    def _sample(self, signum=None, frame=None):
        t0 = perf_counter_ns()
        took = calibration_loop()
        self.at.append(t0)
        self.took.append(took)
        self.spent.append(perf_counter_ns() - t0)

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return False

    def own_ns(self, start_ns: int, end_ns: int) -> int:
        """Time from start_ns to end_ns less the samples that began in it."""
        lo = bisect_left(self.at, start_ns)
        hi = bisect_left(self.at, end_ns)
        return end_ns - start_ns - sum(self.spent[lo:hi])

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Speed factor of an op that ran from start_ns to end_ns."""
        lo = bisect_left(self.at, start_ns - WINDOW_NS)
        hi = bisect_right(self.at, end_ns + WINDOW_NS)
        if lo == hi:  # no sample that close: the last one before, or the first
            hi = min(max(lo, 1), len(self.took))
            lo = hi - 1
        return speed_factor(self.took[lo:hi])

"""The host-speed reference that every end-to-end time is divided by.

The benchmark runs on a few cores of a shared machine whose speed drifts,
for every kind of work at once, by 30% and more within seconds to minutes.
A time measured alone then spreads more between runs of the same code than
any useful bound. So each end-to-end time is divided by a reference time
measured beside it, in the same run, on work that shares no code with ncds.
The quotient is in `ref` units.

* In-process operations (the verify workloads): a `Sampler` thread in the
  worker runs one fixed slice of pure-Python sparse-series arithmetic every
  PERIOD seconds and times it in thread CPU time, so waiting for the GIL is
  not counted. An operation's reference is the harmonic mean of the slices
  during it (`during`), times SLICES_PER_REF: one ref is the time of
  SLICES_PER_REF slices, about one second on a 2-core x86-64 VM. The
  harmonic mean makes the quotient the integral of dt / (slice time) over
  the operation, which stays right when the host changes speed in the middle
  of a long operation; a median picks one speed and spread 0.12 where this
  spreads 0.013 (ten runs of `bar_frontier`'s 18-s operation).
* CLI requests (`spaces_cli`): a `Sampler` runs the same way in the
  benchmark process for the sums (`wall_ref`, `cold_ref`). The warm
  percentiles use one bare `python -c pass` after every request: a
  request's reference is the median of the bare starts nearest to it
  (`beside`), so there one ref is one bare interpreter start.
* Set-up, which must be reported in seconds: each set-up probe is followed
  by a bare start, and the quotient is converted to seconds at the fixed
  rate of BARE_START_S per bare start.
"""

import statistics
import threading
import time
from fractions import Fraction

PERIOD = 0.2          # seconds between slices: about 1% of a core
SLICE_REPS = 8        # one slice: about 2 ms, less than the GIL switch interval
SLICES_PER_REF = 500
NEAREST = 5           # reference samples behind each local median, at least
BARE_START_S = 0.05   # a bare interpreter start on the 2-core x86-64 VM of the baseline

# operands shaped like ncds series: packed byte-string words, int and
# Fraction coefficients
_A = {bytes((i & 1, i >> 1 & 1, i >> 2 & 1, i >> 3 & 1)): Fraction(i + 1, i % 5 + 1)
      for i in range(16)}
_B = {bytes((i & 1, i >> 1 & 1)): i - 2 for i in range(4)}


def kernel_slice():
    """A fixed amount of work: concatenation products accumulated into a
    dict, and a big-integer recurrence."""
    acc = {}
    x = 1
    for _ in range(SLICE_REPS):
        for u, cu in _A.items():
            for v, cv in _B.items():
                w = u + v
                c = acc.get(w)
                acc[w] = cu * cv if c is None else c + cu * cv
        for i in range(160):
            x = (x * 1000003 + i) % (1 << 89)
    return len(acc) + x


class Sampler(threading.Thread):
    """Times `kernel_slice` every PERIOD seconds until `stop`.
    `samples` holds (perf_counter at the slice's middle, CPU seconds)."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self._halt = threading.Event()

    def run(self):
        while not self._halt.wait(PERIOD):
            w0, c0 = time.perf_counter(), time.thread_time()
            kernel_slice()
            c1, w1 = time.thread_time(), time.perf_counter()
            self.samples.append(((w0 + w1) / 2, c1 - c0))

    def stop(self):
        self._halt.set()
        self.join()


def _around(samples, t0, t1):
    """Values of the (time, value) samples taken in [t0, t1], or of the
    NEAREST samples to the interval's middle if fewer were taken in it."""
    inside = [v for t, v in samples if t0 <= t <= t1]
    if len(inside) < NEAREST:
        mid = (t0 + t1) / 2
        inside = [v for _, v in sorted(samples, key=lambda s: abs(s[0] - mid))[:NEAREST]]
    if not inside:
        raise SystemExit("perfbench: no host-speed reference samples")
    return inside


def during(samples, t0, t1):
    """Reference for an interval the slices were sampled through."""
    return statistics.harmonic_mean(_around(samples, t0, t1))


def beside(samples, t0, t1):
    """Reference for an interval from samples taken next to it."""
    return statistics.median(_around(samples, t0, t1))

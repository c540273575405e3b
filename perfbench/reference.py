"""A fixed reference computation that gauges the machine's current speed.

The host this benchmark runs on is shared, and its speed drifts: in one
three-minute sample on 2 vCPUs, a fixed loop's median time over 10-second
windows ranged from 41 to 75 ms, and in some windows even the fastest
sample was 60% slower than the overall fastest.  The drift is fast too: two
samples 5 s apart differed by a third (interquartile range of their ratio).
Two unrelated kernels, one pure Python and one numpy, slowed down together:
the ratio of their window medians stayed within 0.095 to 0.114.

So a pass runs a Gauge: a timer signal runs this kernel every REF_EVERY_S,
while the program runs, and the gauge's clock leaves the kernel's time out.
run.py divides each job's and instance's time by the speed factor around
it, the median kernel time near it over REF_MS (metrics.local_speed).
Every time the benchmark reports is thereby expressed at the machine speed
where the kernel takes REF_MS; the raw times and factors are printed beside
them.

The kernel is the benchmark's own code and never changes with the program,
so a change to the program moves the normalised times as much as it moves
the raw ones.  Its mix mirrors koszulkit's: mostly products of sparse
polynomials held as dicts of exponent tuples, and some int64 row reduction
mod p in numpy.  It touches no state of the program.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Milliseconds the kernel takes at the nominal machine speed: its typical
# fast time on the 2-vCPU VM where the benchmark was written.
REF_MS = 6.0
REF_EVERY_S = 0.25

_P = 3
_X = {((i % 4, (i // 4) % 3, i % 2), i & 3): 1 + i % 2 for i in range(24)}
_Y = {((i % 3, i % 2, (i // 2) % 4), (i >> 1) & 1): 1 + i % 2 for i in range(24)}
_M = np.random.default_rng(7).integers(0, _P, size=(48, 96), dtype=np.int64)


def _kernel() -> int:
    out: dict = {}
    for _ in range(6):
        for (e1, s1), c1 in _X.items():
            for (e2, s2), c2 in _Y.items():
                if s1 & s2:
                    continue
                mon = (tuple(a + b for a, b in zip(e1, e2)), s1 | s2)
                v = (out.get(mon, 0) + c1 * c2) % _P
                if v:
                    out[mon] = v
                else:
                    out.pop(mon, None)
    r = _M.copy()
    row = 0
    for col in range(r.shape[1]):
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        r[[row, piv]] = r[[piv, row]]
        r[row] = (r[row] * pow(int(r[row, col]), -1, _P)) % _P
        r -= np.outer(r[:, col], r[row]) * (np.arange(r.shape[0]) != row)[:, None]
        r %= _P
        row += 1
        if row == r.shape[0]:
            break
    return len(out) + row


def sample() -> float:
    """Milliseconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return (time.perf_counter() - t0) * 1e3


class Gauge:
    """Samples the kernel from a timer signal while the program runs.

    samples holds (clock time, kernel ms).  clock() is time.perf_counter()
    less the time spent in the kernel, so timings taken with it leave the
    samples out.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.paused = 0.0
        self.busy = False

    def clock(self) -> float:
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:  # no sample ran in between
                return now - paused

    def tick(self, *_):
        if self.busy:
            return
        self.busy = True
        t0 = time.perf_counter()
        ms = sample()
        self.samples.append((t0 - self.paused, ms))
        self.paused += time.perf_counter() - t0
        self.busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

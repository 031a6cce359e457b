"""Machine-speed sampler: puts job times on one reference speed.

The machines this benchmark runs on can change speed by 1.4-1.75x for
spells of a second to several minutes, and a job slows with them.  While a
pass runs, a SIGALRM timer interrupts the job every `PERIOD_S` seconds and
times one fixed chunk of exact `Fraction` arithmetic (the kind of work
ndqc does most) in the same process.  Each job's time, with the sampler's
own time taken out, is then scaled by `REF_CHUNK_S / chunk time`, with the
chunk time averaged over the samples from `WINDOW_S` before the job to
`WINDOW_S` after it.  The result is the time the job would take at the
speed where one chunk takes `REF_CHUNK_S`.  The chunk is benchmark code, so
it runs the same on every commit of ndqc.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.025
WINDOW_S = 0.25
# a middling chunk time on a 2-core Xeon VM with Python 3.11, where chunk
# times ran from 0.53 to 0.96 ms (10th to 90th percentile)
REF_CHUNK_S = 0.0008

clock = time.perf_counter


def chunk():
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(1, i)
    return acc


class Sampler:
    def __init__(self):
        self.starts = []        # sample start times, increasing
        self.secs = []          # sample durations
        self.tracer = None      # a Tracer records each sample as a span
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame):
        if self._busy:          # a late signal must not nest a sample
            return
        self._busy = True
        span = self.tracer.open("speed.sample") if self.tracer else None
        t0 = clock()
        chunk()
        self.secs.append(clock() - t0)
        self.starts.append(t0)
        if span is not None:
            self.tracer.close(span)
        self._busy = False

    def _range(self, t0, t1):
        return (bisect.bisect_left(self.starts, t0),
                bisect.bisect_left(self.starts, t1))

    def spent(self, t0, t1):
        """Seconds the sampler took out of the interval [t0, t1)."""
        i, j = self._range(t0, t1)
        return sum(self.secs[i:j])

    def factor(self, t0, t1):
        """REF_CHUNK_S over the mean chunk time around [t0, t1)."""
        i, j = self._range(t0 - WINDOW_S, t1 + WINDOW_S)
        if j <= i:
            raise RuntimeError("no speed samples around the interval")
        return REF_CHUNK_S * (j - i) / sum(self.secs[i:j])

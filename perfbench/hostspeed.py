"""Host-speed normalisation of the benchmark's timings.

On a shared virtual machine the speed of each core drifts by 20-60 % from
one half second to the next, because other tenants load the host, and the
cores drift independently of each other.  Raw wall times of the same code
therefore spread past any useful bound.  The benchmark measures the current
speed of the core it runs on with a fixed reference pass (pure-Python
modular arithmetic, tuple hashing and dict updates, the same mix of work as
geosplit's inner loops), run in the same thread as the work:

- a `Sampler` runs the reference pass before and after every job and, while
  a job runs, every `period` seconds from a SIGALRM handler;
- a job's time is then converted piece by piece, between consecutive
  samples, to seconds at the nominal speed: `raw * NOMINAL_S / pass`, where
  `pass` is the reference pass's duration around that piece.  The samples'
  own time is left out.

The result is in seconds at the speed at which one reference pass takes
NOMINAL_S.  Code that gets faster lowers it; the host getting slower does
not raise it.  The reference pass never competes with child processes for
a core: the life of a process pool (`SampledPool`) is converted at the
mean speed its workers sampled while running their tasks, and a stretch
that runs other child processes (a CLI command) is sampled on every
allowed CPU just before and just after it, and not in between.
"""

from __future__ import annotations

import functools
import os
import signal
import statistics
import time
from contextlib import contextmanager

clock = time.perf_counter

# Seconds one reference pass takes at nominal speed: roughly its median on
# a shared 2-vCPU Intel Xeon virtual machine under Python 3.11.
NOMINAL_S = 0.004
PASS_STEPS = 5000
TASK_SAMPLE_PERIOD_S = 0.1  # periodic samples inside a pool worker's task


def reference_pass():
    """Fixed work whose duration measures the current speed of the core."""
    n = 1009
    m = (1, 1, 0, 1)
    seen = {}
    for i in range(PASS_STEPS):
        a, b, c, d = m
        m = ((2 * a + b) % n, (a + b) % n, (2 * c + d + i) % n, (c + d) % n)
        seen[m] = seen.get(m, 0) + 1
    return len(seen)


def probe(all_cpus=False):
    """Reference passes; returns (start, end, duration of one pass).  With
    `all_cpus`, one pass on each allowed CPU in turn, and their mean."""
    start = clock()
    if not all_cpus:
        reference_pass()
        end = clock()
        return start, end, end - start
    mask = os.sched_getaffinity(0)
    durations = []
    try:
        for cpu in sorted(mask):
            os.sched_setaffinity(0, {cpu})
            t = clock()
            reference_pass()
            durations.append(clock() - t)
    finally:
        os.sched_setaffinity(0, mask)
    return start, clock(), statistics.fmean(durations)


def speed_factor():
    """NOMINAL_S over the reference pass's duration, sampled on every
    allowed CPU: converts seconds measured now into nominal seconds."""
    return NOMINAL_S / probe(all_cpus=True)[2]


class Sampler:
    """Reference passes around and during the jobs of one process."""

    def __init__(self, period=None):
        self.period = period  # None: sample only where sample() is called
        self.probes = []  # (start, end, pass duration), in time order
        self._armed = False
        self._busy = False

    def sample(self, all_cpus=False):
        self._busy = True
        try:
            self.probes.append(probe(all_cpus))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:  # the alarm fired inside a sample
            self.sample()

    def start(self):
        if self.period:
            signal.signal(signal.SIGALRM, self._on_alarm)
            self._arm(True)

    def stop(self):
        if self.period:
            self._arm(False)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _arm(self, on):
        self._armed = on
        interval = self.period if on else 0
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    @contextmanager
    def children(self):
        """A stretch that runs child processes: sampled on every CPU just
        before and after it, and not in between."""
        was = self._armed
        if was:
            self._arm(False)
        self.sample(all_cpus=True)
        try:
            yield
        finally:
            self.sample(all_cpus=True)
            if was:
                self._arm(True)

    def durations(self):
        """Reference-pass durations, median-of-three filtered so that one
        pass hit by a context switch or a garbage collection does not count."""
        d = [p[2] for p in self.probes]
        if len(d) < 3:
            return d
        return [d[0]] + [sorted(d[i - 1:i + 2])[1] for i in range(1, len(d) - 1)] + [d[-1]]

    def normalised(self, start, end, durations=None):
        """Nominal seconds of the interval [start, end], which must have a
        sample just before and just after it; samples inside are left out."""
        if durations is None:
            durations = self.durations()
        probes = self.probes
        before = max(i for i, p in enumerate(probes) if p[1] <= start)
        after = min(i for i, p in enumerate(probes) if p[0] >= end)
        total = 0.0
        for i in range(before, after):
            lo = max(probes[i][1], start)
            hi = min(probes[i + 1][0], end)
            total += (hi - lo) * 2 * NOMINAL_S / (durations[i] + durations[i + 1])
        return total

    def pool(self, pool_class):
        """A drop-in for `pool_class` (multiprocessing.Pool) whose pools are
        timed by SampledPool."""
        return functools.partial(SampledPool, self, pool_class)

    def sampled_time(self, start, end):
        """Raw seconds the samples inside [start, end] took."""
        return sum(e - s for s, e, _ in self.probes if start <= s and e <= end)


class SampledPool:
    """A process pool whose workers sample the host's speed around and
    during each task (`imap_unordered` only, which is what geosplit uses).
    The parent's sampler pauses while the pool lives, and the pool's life is
    then converted at the mean speed factor of the workers' tasks: two
    zero-length samples at its ends carry that speed."""

    def __init__(self, sampler, pool_class, *args, **kwargs):
        self.sampler = sampler
        self._was_armed = sampler._armed
        if self._was_armed:
            sampler._arm(False)
        self._start = clock()
        self._index = len(sampler.probes)
        sampler.probes.append(None)  # the start sample, filled in at the end
        self._raw = self._nominal = 0.0
        self._pool = pool_class(*args, **kwargs)

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        try:
            return self._pool.__exit__(*exc)
        finally:
            end = clock()
            if self._raw > 0:
                duration = NOMINAL_S * self._raw / self._nominal
            else:  # no task ran
                duration = probe(all_cpus=True)[2]
            self.sampler.probes[self._index] = (self._start, self._start, duration)
            self.sampler.probes.append((end, end, duration))
            if self._was_armed:
                self.sampler._arm(True)

    def imap_unordered(self, func, iterable, chunksize=1):
        tasks = ((func, item) for item in iterable)
        for result, raw, nominal in self._pool.imap_unordered(_sampled_task, tasks, chunksize):
            self._raw += raw
            self._nominal += nominal
            yield result


_task_sampler = None  # the Sampler of a pool worker process


def _sampled_task(task):
    """Run one pool task with the host's speed sampled in the worker;
    returns (result, raw seconds, nominal seconds)."""
    global _task_sampler
    if _task_sampler is None:
        _task_sampler = Sampler(TASK_SAMPLE_PERIOD_S)
        _task_sampler.start()
    func, item = task
    sampler = _task_sampler
    sampler.sample()
    start = clock()
    result = func(item)
    end = clock()
    sampler.sample()
    return (result, end - start - sampler.sampled_time(start, end),
            sampler.normalised(start, end))

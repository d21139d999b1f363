"""Host-speed normalisation and the small statistics the benchmark reports.

:class:`HostMeter` times the reference kernel (:mod:`kernel`) while work
runs: a ``SIGPROF`` interval timer interrupts the main thread every
``PROBE_INTERVAL_S`` of process CPU time and times one kernel repetition
there, so the probes are spread evenly over the work whatever the size of
its own chunks.  (``SIGALRM`` is taken: dataset tasks use it for their
time limit.)  Work that must not be interrupted, such as a latency
window, is probed ``BOUNDARY_REPS`` times after each chunk instead.  The
wall time the probes take is kept off every timed value (:meth:`clock`).

A chunk's host factor is the mean time of the probes taken while it ran
(or of the probes just before and after it) over the kernel's nominal
time; its wall time divided by that factor reads as if the host had run
at nominal speed.  It is a mean, not a median: a stall slows the work
and the probes alike, in proportion to how long it lasts.

The host this was built on swings between a fast and a slow state on
sub-second to multi-second scales, the kernel up to 2x slower in the slow
state, so chunks are normalised by their own probes; the run's mean
factor (:attr:`HostMeter.factor`) normalises only the per-layer times.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

from kernel import kernel_once

PROBE_INTERVAL_S = 0.1
BOUNDARY_REPS = 4


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sequence")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def cv(values: Sequence[float]) -> float:
    """Coefficient of variation (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    mean = statistics.fmean(values)
    return statistics.stdev(values) / mean if mean else 0.0


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation; 0 when either side is constant or too short."""
    if len(xs) < 3 or len(xs) != len(ys):
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx <= 0 or syy <= 0:
        return 0.0
    return sxy / math.sqrt(sxx * syy)


@dataclass
class Chunk:
    """One timed unit of work."""

    work: float     # loops (or other units) the chunk completed
    raw_s: float    # wall seconds, probe time excluded
    factor: float   # mean host factor of the probes during (or after) it
    start: float    # perf_counter at the chunk's start
    end: float      # perf_counter at the chunk's end


@dataclass
class HostMeter:
    """Kernel probes spread over the run, and the chunks timed meanwhile."""

    nominal_s: float
    kernels: List[float] = field(default_factory=list)
    chunks: List[Chunk] = field(default_factory=list)
    probe_s: float = 0.0   # wall seconds spent inside probes
    _busy: bool = False

    def probe(self, reps: int = 1) -> None:
        """Time ``reps`` kernel repetitions now."""
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.kernels.extend(kernel_once() for _ in range(reps))
        finally:
            self.probe_s += time.perf_counter() - start
            self._busy = False

    def clock(self) -> float:
        """``perf_counter`` with the time spent in probes taken out."""
        return time.perf_counter() - self.probe_s

    @contextmanager
    def sampling(self):
        """Probe every ``PROBE_INTERVAL_S`` of CPU time while the block runs."""
        previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def chunk(self, fn: Callable[[], float]) -> Chunk:
        """Run ``fn`` (returning the work it did) as one recorded chunk.

        Its local host factor is the mean of the probes taken while it ran;
        if none were, of the last ``BOUNDARY_REPS`` probes before it and as
        many taken after."""
        first = len(self.kernels)
        wall = time.perf_counter()
        start = self.clock()
        work = fn()
        raw = self.clock() - start
        end = time.perf_counter()
        if len(self.kernels) == first:
            self.probe(BOUNDARY_REPS)
            first = max(first - BOUNDARY_REPS, 0)
        factor = statistics.fmean(self.kernels[first:]) / self.nominal_s
        record = Chunk(work=float(work or 0.0), raw_s=raw, factor=factor,
                       start=wall, end=end)
        self.chunks.append(record)
        return record

    @property
    def factor(self) -> float:
        """The run's host factor: mean probe over nominal."""
        if not self.kernels:
            self.probe()
        return statistics.fmean(self.kernels) / self.nominal_s

    @staticmethod
    def norm(seconds: float, factor: float) -> float:
        """``seconds`` measured at host ``factor``, at nominal host speed."""
        return seconds / factor

    def throughput(self, chunks: Sequence[Chunk]) -> float:
        """Work per second over ``chunks``, each at nominal host speed."""
        return sum(c.work for c in chunks) / sum(self.norm(c.raw_s, c.factor) for c in chunks)

    def evidence(self, chunks: Sequence[Chunk]) -> dict:
        """How well the kernel tracks the work within one run: correlation
        of each chunk's factor with its per-unit time, and the per-unit
        spread raw and normalised."""
        kept = [c for c in chunks if c.work]
        per_raw = [c.raw_s / c.work for c in kept]
        per_norm = [self.norm(c.raw_s, c.factor) / c.work for c in kept]
        return {
            "host.kernel_chunk_corr": pearson([c.factor for c in kept], per_raw),
            "host.raw_spread": cv(per_raw),
            "host.norm_spread": cv(per_norm),
        }

"""Host time corrected for the shared host's changing speed.

On a shared host (measured on a 2-vCPU Xeon VM) the same pure-Python
work runs up to 1.8x slower for stretches of several seconds to tens of
seconds (other tenants), which
swamps any regression bound when timing a cell only by its wall clock.
:class:`SteadyClock` runs a short fixed probe from a ``SIGALRM`` timer
every :data:`PERIOD_S` while work is timed, subtracts the probes' own
time, and rescales the remaining host seconds to the speed at which one
probe takes :data:`REF_S`::

    steady = host * (REF_S / mean(probe)) ** SLOWDOWN_EXPONENT

This is the calibration-loop normalisation of ``benchmarks/bench_core.py``
sampled throughout the timed work instead of once per run.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, List, Tuple, TypeVar

#: seconds between two probes
PERIOD_S = 0.05
#: probe seconds at the reference speed; steady seconds compare between
#: runs on one host, not across hosts
REF_S = 0.0016
#: a slowed host slows simulator cells more than the probe: on a shared
#: 2-vCPU Xeon VM, fitting log cell time against log probe time over
#: repeated cells of every workload gave slopes of 1.2 to 1.8
SLOWDOWN_EXPONENT = 1.35

T = TypeVar("T")


def probe() -> float:
    """Fixed mixed work (integer loop, dict, set); returns its seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    table = {i: str(i) for i in range(2_000)}
    odd = {k for k in table if k & 1}
    acc += len(odd)
    return time.perf_counter() - t0


class WallClock:
    """Plain host time, for runs whose spans must not contain probes."""

    def __enter__(self) -> "WallClock":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def time(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``fn``; return ``(result, host seconds, host seconds)``."""
        t0 = time.perf_counter()
        result = fn()
        host = time.perf_counter() - t0
        return result, host, host


class SteadyClock(WallClock):
    """Samples the host's speed while active (a context manager)."""

    def __init__(self) -> None:
        #: ``(handler start, probe seconds, handler seconds)``
        self._samples: List[Tuple[float, float, float]] = []
        self._previous = None

    def __enter__(self) -> "SteadyClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        seconds = probe()
        self._samples.append((start, seconds, time.perf_counter() - start))

    def time(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``fn``; return ``(result, host seconds, steady seconds)``.

        Host seconds exclude the probes that interrupted ``fn``.  Work
        too short to be interrupted is rescaled by a probe run after it.
        """
        first = len(self._samples)
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        inside = [s for s in self._samples[first:] if t0 < s[0] < t1]
        host = t1 - t0 - sum(h for _, _, h in inside)
        probes = [p for _, p, _ in inside] or [probe()]
        speed = REF_S / statistics.fmean(probes)
        return result, host, host * speed**SLOWDOWN_EXPONENT

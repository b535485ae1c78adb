"""The reference clock that end-to-end latencies are expressed in.

The benchmark runs on shared machines whose CPU speed swings as other
tenants load the host: on a 2-vCPU x86-64 VM the same cold E8 query took
0.76 s and 1.28 s seconds apart, with CPU time equal to wall time, and a
whole run could be 40% slower than the one before it.  Wall seconds then
measure the host more than the program.  So each operation's time is
divided by the time the same CPU takes, measured next to the operation, for
a fixed pure-Python loop of REF_ITERATIONS integer steps: one `ref`.  The
loop is the benchmark's own code, so no change to linchar moves it, and a
change that makes linchar faster makes its operations take fewer refs.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_ITERATIONS = 100_000  # about 7-10 ms on the VM above
# An operation's ref is the median of the samples taken within REF_WINDOW
# operations of it: close enough to follow the host's swings, which last
# seconds, and enough samples that one disturbed sample does not count.
REF_WINDOW = 3
SAMPLE_INTERVAL_S = 0.5  # inside one long operation (verify-all)


def ref_seconds() -> float:
    """Seconds this CPU takes, right now, for the reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def windowed(samples: list[float], n: int) -> list[float]:
    """The ref of each of n operations run back to back, where samples[i]
    was taken just before operation i and samples[n] after the last."""
    assert len(samples) == n + 1
    return [statistics.median(samples[max(0, i - REF_WINDOW):i + REF_WINDOW + 2]) for i in range(n)]


class Sampler:
    """Samples the reference loop before, after, and every
    SAMPLE_INTERVAL_S during a long operation in this process, from a
    SIGALRM handler.  `during` is the time the samples inside the operation
    took, which the caller subtracts from the operation's time."""

    def __init__(self):
        self.samples: list[float] = []
        self.during = 0.0
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        seconds = ref_seconds()
        self.samples.append(seconds)
        self.during += seconds

    def __enter__(self) -> "Sampler":
        self.samples.append(ref_seconds())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(ref_seconds())

    @property
    def ref(self) -> float:
        return statistics.median(self.samples)

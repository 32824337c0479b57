"""Host-speed reference: report times at a nominal host speed.

The benchmark runs on shared machines whose per-core speed drifts by
tens of percent over minutes as neighbours come and go, and everything
it times is CPU-bound Python.  While a run measures, a ``SIGALRM`` timer
interrupts it every ``PERIOD_S`` and times one pass of a fixed
pure-Python loop that runs no program code.  A phase is then reported as

    (measured s - time spent in the loop) * NOMINAL_S / mean(loop passes
    during the phase)

that is, in seconds at the speed where one loop pass takes ``NOMINAL_S``.
Drift of the host moves the loop and the phase alike and cancels; a
slower program still reads slower, since the loop never runs its code.
Raw and rescaled times are both printed.

Phases that keep both cores busy with pool workers are not sampled (the
loop would queue behind a worker); they are rescaled by the passes of
the single-process phase measured just before them.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter as perf

#: seconds between samples, and the loop pass time the results are
#: rescaled to (about an idle core of a 2-core Intel Xeon container)
PERIOD_S = 0.05
NOMINAL_S = 0.00028


def _loop(n: int = 4000) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class HostSpeed:
    """Samples the reference loop from a timer while armed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = perf()
        _loop()
        dt = perf() - t0
        self.samples.append(dt)
        self.spent += dt

    def arm(self) -> "HostSpeed":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def mark(self) -> tuple[int, float, float]:
        """A phase boundary: (samples so far, loop time so far, now)."""
        return len(self.samples), self.spent, perf()

    def scale(self, raw: float, start: tuple, end: tuple) -> float:
        """*raw* seconds rescaled by the loop passes between two marks."""
        passes = self.samples[start[0]:end[0]] or self.samples
        return raw * NOMINAL_S / statistics.fmean(passes) if passes else raw

    def record(self, name: str, start: tuple, end: tuple, ref: tuple = ()) -> float:
        """The rescaled seconds of the phase between marks *start* and *end*.

        *ref*, a (start, end) pair of another phase's marks, lends that
        phase's loop passes to one run with the timer off.
        """
        raw = end[2] - start[2] - (end[1] - start[1])
        scaled = self.scale(raw, *(ref or (start, end)))
        self.raw[name] = self.raw.get(name, 0.0) + raw
        self.scaled[name] = self.scaled.get(name, 0.0) + scaled
        return scaled

"""Wall-clock timing rescaled to a fixed machine speed.

On a shared host the speed of a process drifts by tens of percent within a
few seconds: on a 2-vCPU VM with numpy 2.4 and Python 3.11, one pure-Python
loop timed back to back took anywhere from 36 to 72 ms, and process CPU time
drifted with wall time. One number per run then cannot repeat within a tenth
across runs. ``SpeedClock`` measures the drift while the benchmark runs: a
``SIGALRM`` interval timer runs a fixed pure-Python probe every ``PERIOD_S``
seconds in the main thread (no extra thread), and ``seconds(a, b)`` rescales
the wall interval ``[a, b]``, less the probe time inside it, by
``NOMINAL_PROBE_S`` over the mean probe duration in and around it. The result
is the interval's length at the nominal speed: work the program stops doing
lowers it as it lowers wall time, while a neighbour slowing the machine
mostly does not raise it. On that VM the correction cut the spread of a
repeated ``recommend`` call's per-window median from 26% to 2.5%, and of a
skill-matching call's from 25% to 8.5%.
"""
from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

PERIOD_S = 0.025         # probe cadence
PROBE_LOOPS = 2000       # about 0.2 ms of dict updates per probe
NOMINAL_PROBE_S = 2e-4   # probe duration that counts as the nominal speed
NEIGHBOURS = 2           # probes on each side of an interval that also describe it


def _probe() -> None:
    d: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        k = i & 255
        d[k] = d.get(k, 0) + i


class SpeedClock:
    """Probe timestamps and durations, recorded by a ``SIGALRM`` handler."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def _tick(self, _signum, _frame) -> None:
        if self._busy:  # a late signal landed inside the previous probe
            return
        self._busy = True
        t = perf_counter()
        _probe()
        self.starts.append(t)
        self.durations.append(perf_counter() - t)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, a: float, b: float) -> float:
        """Mean speed (nominal = 1) over the probes inside ``[a, b]`` and the
        ``NEIGHBOURS`` nearest on either side of it."""
        i = max(0, bisect_left(self.starts, a) - NEIGHBOURS)
        j = bisect_right(self.starts, b) + NEIGHBOURS
        probes = self.durations[i:j]
        return sum(NOMINAL_PROBE_S / d for d in probes) / len(probes)

    def seconds(self, a: float, b: float) -> float:
        """Nominal-speed length of the wall interval ``[a, b]`` (probes excluded)."""
        lo = bisect_left(self.starts, a)
        hi = bisect_right(self.starts, b)
        busy = (b - a) - sum(self.durations[lo:hi])
        return busy * self.speed(a, b)

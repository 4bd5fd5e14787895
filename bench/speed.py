"""Machine-speed probe interleaved with the timed work.

The benchmark runs on shared machines whose speed drifts by a third or more
over tens of seconds, and the drift moves every workload's wall time along
with it. While a repeat runs, an interval timer interrupts the main thread
every ``INTERVAL`` seconds and times one fixed unit of pure-Python probe
work, which touches neither ``toolwear`` nor numpy, so no change to the
program changes the probe's work (its threads still share the machine with
the probe, see NOTES.md). The probe's
own time is taken out of the repeat's wall time, and the mean probe duration
over the repeat, against ``NOMINAL_PROBE_S``, is the machine's slowdown
during that repeat: :func:`scaled` gives the time the repeat would have
taken at nominal speed.

Code that spends its time in numpy slows less than the pure-Python probe
when the machine slows, so each workload states its elasticity: the slope
of log wall time against log slowdown, measured over repeats of identical
work (NOTES.md gives the estimates).

SIGALRM should reach only the main thread: :func:`block_alarm` is called
before numpy and scipy start their BLAS worker threads, which inherit the
blocked mask, and :func:`unblock_alarm` once they have started.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL = 0.04            # seconds between probes, about 2% of the time
PROBE_LOOPS = 3000         # iterations of the probe's loop, about 0.75 ms
NOMINAL_PROBE_S = 0.00075  # probe duration that counts as nominal speed


def block_alarm() -> None:
    """Block SIGALRM in this thread; threads started from now on inherit it."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})


def unblock_alarm() -> None:
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def probe_work(n: int = PROBE_LOOPS) -> float:
    """A fixed unit of interpreter work: float arithmetic, calls, a dict."""
    acc = 0.0
    seen = {}
    for i in range(n):
        x = (i % 97) * 0.5 + 1.0
        acc += math.sqrt(x) * x - acc * 1e-3
        seen[i & 63] = acc
    return acc + len(seen)


def time_probe() -> float:
    t0 = time.perf_counter()
    probe_work()
    return time.perf_counter() - t0


def calibrate(seconds: float) -> float:
    """Mean probe duration over back-to-back probes for about ``seconds``."""
    durations = [time_probe()]
    while sum(durations) < seconds:
        durations.append(time_probe())
    return statistics.fmean(durations)


def scaled(seconds: float, mean_probe: float, elasticity: float = 1.0) -> float:
    """``seconds`` measured at probe speed ``mean_probe``, at nominal speed,
    for work whose time moves as ``slowdown ** elasticity``."""
    return seconds * (NOMINAL_PROBE_S / mean_probe) ** elasticity


class SpeedProbe:
    """Times ``probe_work`` on every timer tick between start() and stop()."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.durations.append(time_probe())

    def start(self) -> None:
        self.durations = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> list[float]:
        """The probe durations since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        return self.durations

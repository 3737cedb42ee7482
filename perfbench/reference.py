"""Sample how fast the core runs while timed work runs, to rescale its wall time.

On a shared host the speed of one core changes by a factor of up to two,
from one second to the next and over minutes, so two runs of the same code
can differ by more than a benchmark's bound. While timed work runs, a timer
signal interrupts it every ``PERIOD_S`` and runs a fixed interpreter loop,
the probe, of about a millisecond. The median probe time over the work,
against ``NOMINAL_S``, says how much slower than nominal the core ran it.
The work's wall time, less the time spent in probes, is rescaled by that
factor. Samples spread evenly over the work track the speed changes inside
it, which a reference task run only before and after a long call cannot.
The probe never changes with the program, so a faster program still shows
as a proportionally smaller time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.025
# the probe's time on an idle core of the 2-vCPU Xeon VM the benchmark was
# written on; it only sets the scale of the rescaled times
NOMINAL_S = 0.0009
_PROBE_LOOP = 15_000
_PROBE_SUM = 30_001


class SpeedSampler:
    """Probe the core's speed every ``PERIOD_S`` while the ``with`` block runs.

    Only the main thread receives the timer signal; a probe that falls due
    during a long call into C runs when the call returns.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.probe_s = 0.0  # time spent in probes, to take out of the wall time

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(_PROBE_LOOP):
            total += i * i % 7
        elapsed = time.perf_counter() - start
        if total != _PROBE_SUM:
            raise RuntimeError("speed probe computed a wrong result")
        self.samples.append(elapsed)
        self.probe_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescaled(self, wall_s: float) -> float:
        """``wall_s`` less the probes' time, at nominal speed."""
        return rescaled(wall_s, self.probe_s, self.samples)


def rescaled(wall_s: float, probe_s: float, samples: list[float]) -> float:
    """``wall_s`` less ``probe_s``, at nominal speed by the median of ``samples``."""
    if not samples:
        raise ValueError("no speed probe ran during the timed work")
    return (wall_s - probe_s) * NOMINAL_S / statistics.median(samples)

"""A machine-speed probe, so that times from a shared host can be compared.

On a shared 2-vCPU host the same pass of a workload took anywhere from 16
to 27 seconds within half an hour: other tenants change how fast our vCPU
runs.  ``SpeedProbe`` samples that speed while the benchmark runs: a
timer interrupts the process every ``INTERVAL_S`` seconds and times one
fixed work unit (stdlib only, so no change to qha can alter it).  A
measured time is then scaled by ``REFERENCE_UNIT_S`` over the mean CPU
time of the units sampled in the same interval, which gives the time the
work would take on a host where the unit takes ``REFERENCE_UNIT_S`` of CPU.
The probe's own time is subtracted first.  CPU rather than wall time of
the unit is used because the timer tends to fire when the scheduler
switches tasks, so the units' wall times overstate preemption.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# The scale of the reported times: roughly the unit's CPU time on a shared
# 2-vCPU Xeon at 2.1 GHz.  Only ratios between runs matter.
REFERENCE_UNIT_S = 0.002
# Sampling period: the unit costs about 2% of the run at this rate.
INTERVAL_S = 0.1

_INTS = tuple(range(40000))


def work_unit():
    """Fraction arithmetic, integer loops and a pass over a 40000-tuple:
    the operations qha's exact linear algebra is made of."""
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i % 11, 7) * Fraction(3, i)
    acc = 0
    for x in _INTS[::8]:
        acc = (acc + x * 3) % 7
    return s, acc + _INTS.count(0)


class SpeedProbe:
    """Samples the unit's time on a wall-clock timer; see the module doc."""

    def __init__(self):
        self.unit_cpu = []      # CPU time of each sampled unit
        self.cost_wall = 0.0    # total time the samples took
        self.cost_cpu = 0.0
        self._previous = None

    def sample(self, *_):
        w0, c0 = time.perf_counter(), time.process_time()
        work_unit()
        dw = time.perf_counter() - w0
        dc = time.process_time() - c0
        self.unit_cpu.append(dc)
        self.cost_wall += dw
        self.cost_cpu += dc

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self):
        """A position to measure from: (samples so far, probe wall, probe cpu)."""
        return len(self.unit_cpu), self.cost_wall, self.cost_cpu

    def net(self, since, wall, cpu):
        """(wall, cpu) measured since ``since`` (a ``mark``), less the
        probe's own time in that interval."""
        _, cost_wall, cost_cpu = self.mark()
        return wall - (cost_wall - since[1]), cpu - (cost_cpu - since[2])

    def factor(self, since=(0, 0.0, 0.0)):
        """The scale factor from the units sampled since a mark, by default
        all of them.  An interval too short to hold a sample uses one unit
        timed now."""
        if len(self.unit_cpu) == since[0]:
            self.sample()
        units = self.unit_cpu[since[0]:]
        return REFERENCE_UNIT_S * len(units) / sum(units)

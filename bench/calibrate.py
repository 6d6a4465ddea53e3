"""Machine speed, sampled while the ops run.

The benchmark runs on shared hosts whose speed moves by tens of percent
within seconds and between minutes, as other tenants load the same cores.
That load slows gpmod and any other code alike.  So while the ops run, a
timer signal interrupts the run every ``INTERVAL_S`` and the handler does a
fixed *unit* of reference work (plain Python, tiny NumPy calls and a small
NumPy product: the mix of gpmod's own work) and times it.  The harness
takes the handler's time out of the op it interrupted, and scales op times
by

    speed = REF_UNIT_S / (mean wall time of one unit)

A scaled time is in *reference seconds*: what the wall time would have
been on a machine where one unit takes ``REF_UNIT_S`` (about its least
time on a 2-vCPU Intel Xeon virtual machine with CPython 3.11 and NumPy 2).
The units are this file's code, and they sample the same moments as the
ops, so a change to gpmod moves the scaled times as much as it moves the
wall times under the same load.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

import numpy as np

REF_UNIT_S = 0.9e-3
INTERVAL_S = 0.02


def unit() -> int:
    """One unit of reference work, about REF_UNIT_S on an idle machine."""
    d: dict = {}
    s = 0
    for i in range(1200):
        k = (i % 37, i % 11)
        d[k] = d.get(k, 0) + i
        s += len(d) & 7
    seen = set()
    for text in sorted(str(v) for v in d.values()):
        seen.add(text[:2])
    a = np.arange(16, dtype=np.int64).reshape(4, 4) + 1
    for _ in range(100):
        a = (a @ a) % 101
        a[0, 1] += 1
        s += np.nonzero(a[:, 0])[0].size
    b = np.arange(40 * 40, dtype=np.int64).reshape(40, 40) % 101
    for _ in range(6):
        b = (b @ b) % 101
    return s + len(seen) + int(b[0, 0])


class Calibrator:
    """Runs a unit on every tick of a timer while in its ``with`` block.

    ``spent`` is the handler's total time; an op timed from ``t0`` to
    ``t1`` takes ``spent`` at ``t1`` minus ``spent`` at ``t0`` out of its
    wall time."""

    def __init__(self):
        self.units = 0
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        gc_was_enabled = gc.isenabled()
        gc.disable()  # gpmod's heap must not change the unit's cost
        t0 = perf_counter()
        unit()
        self.spent += perf_counter() - t0
        self.units += 1
        if gc_was_enabled:
            gc.enable()

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.units == 0:  # a block shorter than one interval
            self._tick(None, None)

    def speed(self) -> float:
        """REF_UNIT_S over the mean unit time; below 1 on a slower machine."""
        return REF_UNIT_S * self.units / self.spent

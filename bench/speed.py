"""Host-speed probe: benchmark times in seconds at a fixed reference speed.

The benchmark's host runs each vCPU at one of two speeds about 1.9x
apart and switches between them over periods from a fraction of a second
to minutes (see NOTES.md).  Raw times of the same work then vary by more
than any useful regression bound, and no median of a few passes helps.

The probe measures the speed of the very thread doing the work: while it
is active, a SIGALRM handler runs a fixed calibration loop every
PERIOD_S on the main thread, between two bytecodes of the workload.
Each stretch between samples is scaled by REFERENCE_S over the local
calibration time (a median of three samples), and the calibration time
itself counts as zero.  The result is a clock that advances in seconds
at the reference speed; any interval, span or pass is timed on it.
"""

from __future__ import annotations

import math
import signal
import time

PERIOD_S = 0.01
LOOPS = 400
#: Calibration time at the reference speed: the fast state of a vCPU of
#: the 2 GHz, 2-vCPU virtual machine (CPython 3.11) on which the
#: benchmark was defined.  There, reference seconds read like wall seconds.
REFERENCE_S = 45e-6


def calibrate() -> float:
    t = time.perf_counter()
    acc = 0.0
    for i in range(LOOPS):
        acc += math.exp(-i * 1e-6)
    return time.perf_counter() - t


class SpeedProbe:
    """Context manager that samples the host's speed; then :meth:`clock` converts times."""

    def __init__(self):
        self.at = []
        self.cal = []
        self._previous = None
        self._knots = None
        self._busy = False

    def sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a timer signal arrived during a calibration
            return
        self._busy = True
        t = time.perf_counter()
        self.cal.append(calibrate())
        self.at.append(t)
        self._busy = False

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart system calls the timer interrupts
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def _build(self):
        import numpy as np  # not at import time: set-up is timed on this probe

        at, cal = np.asarray(self.at), np.asarray(self.cal)
        padded = np.concatenate(([cal[0]], cal, [cal[-1]]))
        local = np.median(np.stack((padded[:-2], padded[1:-1], padded[2:])), axis=0)
        done = at + cal  # end of each calibration
        gain = np.maximum(at[1:] - done[:-1], 0.0) * (REFERENCE_S / local[:-1])
        reference = np.concatenate(([0.0], np.cumsum(gain)))
        # knots: flat over each calibration, linear in between
        xs = np.stack((at, done), axis=1).ravel()
        ys = np.stack((reference, reference), axis=1).ravel()
        return xs, ys

    def clock(self, t):
        """Reference seconds elapsed from the first sample to perf_counter time ``t``."""
        import numpy as np

        if self._knots is None:
            self._knots = self._build()
        return np.interp(t, *self._knots)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds in the perf_counter interval [start, end]."""
        return float(self.clock(end) - self.clock(start))

"""Operation times scaled to a fixed machine speed.

The VM the benchmark's bounds were set on (2 vCPUs of a shared host) changes
speed by up to 2x within seconds, its two vCPUs can differ by 1.6x at the
same moment, and the process's CPU time follows its wall time: the slowdown
is the host's, not time spent off the CPU.  So every time is also reported
scaled to a fixed speed.  A calibration kernel, which uses only Python and
numpy and none of convexlab, is timed before an operation, every `PERIOD`
seconds while it runs (from a SIGALRM handler, between the program's
bytecodes) and after it.  An operation's scaled time is

    (its wall time - time spent in the kernel) * mean(KERNEL_S / kernel time)

over those samples: the seconds it would have taken had every sample of the
kernel taken `KERNEL_S`.  Samples are evenly spaced in wall time, so the mean
of the speed ratio weights each phase of the machine by how long the
operation spent in it.  On that VM this cut the interquartile spread of a
repeated 0.85 s operation list from 0.24 to 0.07 of its median.  Start-up
in a fresh interpreter is scaled by a reference start-up instead
(`spawn_times`).
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from typing import Callable

import numpy as np

PERIOD = 0.1        # seconds between samples inside an operation
KERNEL_S = 0.55e-3  # kernel time that defines the reference speed: about its
                    # median on that VM, so a scaled second ~ a wall second there
SPAWN_S = 0.15      # the same for the reference start-up below
REFERENCE_SPAWN = [sys.executable, "-c", "import numpy"]
WARMUP = 50
BRACKET = 5         # samples before and after an operation

_X = np.linspace(-1.0, 1.0, 64)
_C = np.array([1.0, -0.5, 0.25, 2.0])
_Y = np.random.default_rng(0).random(4096)


def kernel() -> float:
    """A fixed mix of interpreted arithmetic, small numpy calls and sorts of
    a 4096-element array.  Against the same kernel without the sorts, it cut
    the spread of the scaled times of a repeated 2 s construction and 6 s
    sweep by a third to a half."""
    s = 0.0
    for i in range(1500):
        s += (i % 7) * 0.5
    for _ in range(10):
        s += float(np.max(np.abs(np.polyval(_C, _X) - np.cos(_X))))
    for _ in range(4):
        z = np.sort(_Y)
        s += float(np.sum(np.exp(-z) * z))
    return s


class Pace:
    """Times callables in wall seconds and in reference-speed seconds.

    With sampling=False it only times them, and scaled equals wall.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.samples: list = []
        self.in_kernel = 0.0
        for _ in range(WARMUP):
            kernel()

    def _sample(self) -> None:
        t = time.perf_counter()
        kernel()
        d = time.perf_counter() - t
        self.samples.append(d)
        self.in_kernel += d

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def _bracket(self) -> None:
        for _ in range(BRACKET):
            self._sample()

    def _scale(self) -> float:
        return statistics.fmean(KERNEL_S / d for d in self.samples)

    def run(self, fn: Callable[[], object]):
        """Run fn(); return (result, exception, wall_s, scaled_s).

        An exception fn raises is returned, not raised, so that a failed
        operation is timed like any other.
        """
        self.samples = []
        if self.sampling:
            self._bracket()
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self.in_kernel = 0.0
        result = exc = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as e:  # a failed operation is counted, not fatal
            exc = e
        finally:
            t1 = time.perf_counter()
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        wall = t1 - t0 - self.in_kernel
        if not self.sampling:
            return result, exc, wall, wall
        self._bracket()
        return result, exc, wall, wall * self._scale()


def _spawn(cmd: list) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def spawn_times(cmd: list, probes: int) -> tuple:
    """Medians over `probes` runs of `cmd` in fresh interpreters, (wall s,
    scaled s).

    Start-up is mostly process creation, page faults and imports, which the
    kernel above tracks poorly.  Each probe is scaled instead by a reference
    start-up, a fresh interpreter that imports numpy only, timed just
    before and just after it: on that VM the two correlated at
    0.86 over 40 pairs, and scaling halved the spread of the probe times.
    """
    refs = [_spawn(REFERENCE_SPAWN)]
    walls, scaled = [], []
    for _ in range(probes):
        wall = _spawn(cmd)
        refs.append(_spawn(REFERENCE_SPAWN))
        walls.append(wall)
        scaled.append(wall * SPAWN_S / statistics.fmean(refs[-2:]))
    return statistics.median(walls), statistics.median(scaled)

"""The machine-speed probe that runs inside each untraced pass.

On a shared 2-core VM the same pass can take 2x as long as a minute
earlier, and its CPU time drifts with its wall time: the processor slows,
not only the scheduler that withholds it.  A fixed piece of
work timed before and after a pass misses changes during it.  So a timer
signal interrupts the pass every INTERVAL_S seconds, between two bytecodes
of the program, and times the same small fixed piece of work there.  The
pass's speed-normalised time is its own time divided by the time-weighted
median of these probe times, so it reads about the same at any speed.

The probe is an interpreter loop plus numpy arithmetic, bincount and fancy
indexing on a 256 KiB array: the two kinds of work synhash does.  It uses
none of synhash, so a change to the program cannot change the probe.  Of
the probes tried, this mix left the smallest spread of normalised pass
times over all four workloads (0.06-0.12 of the median, against 0.19-0.36
for raw wall time, over 27 passes each).
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1
_BLOCK = np.arange(1 << 15, dtype=np.int64)
_PERM = np.random.default_rng(0).permutation(1 << 15)


def probe() -> None:
    """The fixed work, about 2 ms; allocates nothing that outlives it."""
    acc = 0
    for i in range(6000):
        acc += (i * i) ^ (i >> 3)
    block = _BLOCK
    for _ in range(4):
        block = (block * 3 + 1) & 0xFFFF
        np.bincount(block & 4095, minlength=4096)
        block = block[_PERM]
    np.sort(block[:4096])


class SpeedSampler:
    """Times probe() every INTERVAL_S seconds of wall time while running.

    Each sample is (weight_s, probe_s) in CPU time of the process: the CPU
    time since the previous sample ended, which the probe stands for, and
    the probe's own.  CPU time leaves out the time the VM or the scheduler
    took the processor away, which wall time would count in the pass and in
    some probes but not others.  A long call into numpy defers the signal
    until it returns, so such a sample stands for the whole call.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.probe_cpu_s = 0.0  # CPU and wall time spent in probes while
        self.probe_wall_s = 0.0  # the timer ran
        self._last = 0.0
        self._previous = None

    def _sample(self) -> float:
        """Time one probe as a sample; returns its wall time."""
        wall, started = time.perf_counter(), time.process_time()
        probe()
        ended = time.process_time()
        self.samples.append((started - self._last, ended - started))
        self._last = ended
        return time.perf_counter() - wall

    def _on_signal(self, signum, frame) -> None:
        self.probe_wall_s += self._sample()
        self.probe_cpu_s += self.samples[-1][1]

    def start(self) -> None:
        for _ in range(20):  # first calls pay for numpy's lazy set-up
            probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_signal)
        self._last = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than INTERVAL_S: one probe after it
            self._sample()


def weighted_median(samples: list[tuple[float, float]]) -> float:
    """Median of the probe times, each weighted by the CPU time it stands for."""
    ordered = sorted(samples, key=lambda s: s[1])
    half = sum(w for w, _ in ordered) / 2.0
    seen = 0.0
    for weight, value in ordered:
        seen += weight
        if seen >= half:
            return value
    return ordered[-1][1]

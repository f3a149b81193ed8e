"""Host-speed calibration.

The reference host (a 2-core Xeon virtual machine) changes speed by up
to 70% over tens of seconds for identical work, in CPU time as much as
in wall time. A fixed kernel, timed after every
operation of a run, tracks that drift. A run's times are scaled by
REFERENCE_S / (the kernel's mean time in that run), which reads as the
time the run would take with the host at its reference speed. One factor
per run: a factor per operation, from the two samples around it, adds
more noise than it removes.

The kernel mixes what foleyflow spends its time on: small float64 numpy
ops, Python-level object and dict work, and text parsing. It never
calls foleyflow, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the kernel's time on the reference host (2-core Xeon, numpy
# 2.4.6, one BLAS thread); a constant, so normalized times read in
# ordinary units
REFERENCE_S = 0.006

_A = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)
_B = np.linspace(-0.5, 0.5, 32 * 128).reshape(32, 128)
_LINE = "c000123,12.345,bark:0.5:1.25;slam:2.0:3.75,0.512,0.733,0,1"


def kernel() -> float:
    acc = 0.0
    for i in range(100):
        c = _A @ _B
        c = np.tanh(c) * 0.5 + c.mean(axis=-1, keepdims=True)
        s = c - c.max(axis=-1, keepdims=True)
        acc += float(np.exp(s).sum())
        parts = _LINE.split(",")
        events = [tuple(e.split(":")) for e in parts[2].split(";")]
        record = {"id": parts[0], "dur": float(parts[1]), "events": [(a, float(b), float(c)) for a, b, c in events]}
        acc += record["dur"] + len(repr(record)) * 1e-6 + i
    return acc


REPEATS = 5  # kernel runs per sample; the fastest is kept


class Calibrator:
    """Times the kernel on demand; factor() turns the samples into a scale."""

    def __init__(self):
        self.samples: list = []  # kernel seconds per sample

    def sample(self) -> None:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        self.samples.append(min(times))


def factor(samples: list) -> float:
    """REFERENCE_S over the mean kernel time: multiply a run's times by it.

    The mean, not the median: each sample is already the fastest of a few
    kernel runs, and on a five-minute record of this host the mean tracked
    the workload's drift more closely.
    """
    return REFERENCE_S / statistics.fmean(samples)

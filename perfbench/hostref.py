"""Host-speed reference: a fixed computation timed beside every measured step.

The machine this benchmark was tuned on (2 vCPUs shared with other guests)
runs the same code 1.1-1.9x slower than its best, in stretches from seconds
to minutes.  CPU time slows as much as wall time, and in the slow stretches
no operation of a 45 s run reaches the fast speed, so neither CPU time nor a
best-of-N removes the slowdown.  It slows this reference about as much as
physeg's own work, so a step's time divided by the reference times taken
just before and after it varies far less between runs than the step's time.

``at_reference_speed`` turns a measured time into the time the step would
take with the host at the speed where the reference takes ``REF_SECONDS``.
"""

from __future__ import annotations

import time

import numpy as np

# About the reference's time on the tuning host (Xeon, 2 vCPUs, 1 BLAS
# thread) at its best speed, so adjusted times read close to raw times there.
REF_SECONDS = 0.030

_rng = np.random.default_rng(0)
_GRID = _rng.random((256, 256, 4))
_VALUES = _rng.random(20000)


def reference_seconds():
    """Time one fixed mix of array math, text formatting/parsing and dict work."""
    t0 = time.perf_counter()
    for _ in range(4):
        x = np.exp(_GRID)
        x /= x.sum(axis=2, keepdims=True)
        np.argmax(x, axis=2)
    text = " ".join("%.6g" % v for v in _VALUES)
    np.array(text.split(), dtype=float)
    acc = {}
    for i in range(60000):
        acc[i % 101] = acc.get(i % 101, 0) + i
    return time.perf_counter() - t0


def at_reference_speed(seconds, ref_before, ref_after):
    """``seconds`` scaled by REF_SECONDS over the mean of the two reference times."""
    return seconds * REF_SECONDS * 2 / (ref_before + ref_after)

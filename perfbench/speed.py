"""Machine-speed factor: host seconds in reference-speed units.

On a shared 2-vCPU x86-64 container the machine speed drifts by up to
1.7x over tens of seconds, and the program's throughput tracks the
drift.  So every measured step is bracketed by
:func:`calibrate` -- a fixed unit of interpreter work plus a NumPy
lexsort and segmented reduction, the two kinds of host work the
simulator does -- and its host seconds are divided by the speed factor
(calibration seconds over :data:`REFERENCE_S`).  The calibration never
calls the program, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds of one calibration unit on the reference machine state: a
#: shared 2-vCPU x86-64 container at its fast speed.  Only the scale of
#: the reported host metrics depends on it.
REFERENCE_S = 0.003

_RNG = np.random.default_rng(20170814)
_ROWS = _RNG.integers(0, 1024, 16_000)
_COLS = _RNG.integers(0, 1024, 16_000)
_VALS = _RNG.random(16_000)
_STARTS = np.arange(0, 16_000, 16)


def _unit() -> float:
    acc, table = 0, {}
    for i in range(3_000):
        acc += (i * 2654435761) % 1009
        table[i & 255] = acc
    order = np.lexsort((_COLS, _ROWS))
    return float(np.add.reduceat(_VALS[order], _STARTS)[0]) + acc


def calibrate() -> float:
    """Median seconds of three calibration units, back to back."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Speed factor of a step bracketed by two calibrations (> 1 when
    the machine runs slower than the reference)."""
    return (before + after) / (2.0 * REFERENCE_S)

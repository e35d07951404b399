"""Speed correction for the gated timings.

The reference box is a 2-vCPU guest on a shared host.  Its speed moves
by 1.3-2x for tens of seconds to minutes at a stretch, none of it
reported as steal, so two runs of the same code a few minutes apart
differ by more than any bound the benchmark could set (README, "Why
timings are speed-corrected").  What the machine does to the program it
also does to a fixed piece of work next to it: ``calibration_s`` times
such a piece before and after every timed region, and
``to_reference`` scales the region's wall-clock by how far the two
calibrations were from ``REFERENCE_S``.  The result is seconds at the
reference speed; on a quiet machine it equals the wall-clock.

The calibration calls nothing in ``src/``, so no change to the program
can move it.  It is half interpreter arithmetic and half a NumPy gather
over 24 MB: on an hour of recorded runs that mix tracked four of the
seven workloads better than either half and the other three nearly as
well, and adding object churn (dict inserts, hashing, a keyed sort) made
it worse - that slows more than any workload does.  The 24 MB its arrays
hold are part of every ``peak_rss_mib``.
"""

from __future__ import annotations

import time

import numpy as np

#: what one calibration takes on the reference box when it is quiet; over
#: forty 24 s runs in one noisy hour the run medians were 0.98-1.45x this.
REFERENCE_S = 0.050

_SOURCE = np.random.default_rng(0).random(1_000_000)
_INDEX = np.random.default_rng(1).permutation(1_000_000)
_GATHERED = np.empty_like(_SOURCE)


def calibration_s() -> float:
    """Wall seconds of the fixed work, about 50 ms."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    for _ in range(8):
        # mode="raise" would gather into a temporary copy of ``out``
        np.take(_SOURCE, _INDEX, out=_GATHERED, mode="wrap")
    return time.perf_counter() - start


def to_reference(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` scaled to the reference speed, given the calibrations
    taken either side of it."""
    return wall_s * 2 * REFERENCE_S / (before_s + after_s)

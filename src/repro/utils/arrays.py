"""Stand-ins for numpy calls that run a bare ``np.unique``, whose first
use in a process imports ``numpy.ma`` (numpy 2)."""

from __future__ import annotations

import numpy as np


def sorted_unique(keys) -> np.ndarray:
    """``np.unique(keys)`` as a sort and a mask (several times faster)."""
    keys = np.sort(keys, axis=None)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values, q)`` of a non-empty NaN-free column, bit
    for bit: linear interpolation between its two closest ranks."""
    at = (values.size - 1) * (q / 100)
    lo = int(at)
    hi = min(lo + 1, values.size - 1)
    a, b = np.partition(values, [lo, hi])[[lo, hi]].tolist()
    t = at - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t

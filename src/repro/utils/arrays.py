"""Stand-ins for numpy calls that are slower than they need to be: a
bare ``np.unique``, whose first use in a process imports ``numpy.ma``
(numpy 2), and a comparison sort over keys known to be small."""

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


def stable_order(keys, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of integer ``keys`` in
    ``[0, bound)``, bit for bit (a stable sort's permutation is unique),
    as LSD passes over 16-bit digits: numpy sorts a 16-bit (or 8-bit)
    column stably by radix, in linear time."""
    keys = np.asarray(keys)
    digit = np.uint8 if bound <= 1 << 8 else np.uint16
    order = np.argsort(keys.astype(digit), kind="stable")
    for shift in range(16, max(int(bound) - 1, 1).bit_length(), 16):
        high = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(high, kind="stable")]
    return order

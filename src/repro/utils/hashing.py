"""Deterministic, process-stable hashing.

Python's built-in ``hash`` is salted per process (PYTHONHASHSEED), which
would make partitionings non-reproducible across runs.  The graph systems
the paper builds on (Hama/Cyclops, PowerLyra) use a fixed modular or
multiplicative hash for their "random" (hash-based) partitioning; we use
a 64-bit splitmix finaliser, which is fast, stateless and well mixed.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stable_hash(value: int, salt: int = 0) -> int:
    """Return a deterministic 64-bit hash of an integer.

    The function is the splitmix64 finalisation step, which passes the
    usual avalanche tests; equal inputs always produce equal outputs
    regardless of interpreter or platform.
    """
    x = (value + 0x9E3779B97F4A7C15 + salt * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def stable_hash_array(values, salt: int = 0) -> np.ndarray:
    """:func:`stable_hash` of every integer in ``values``, as ``uint64``."""
    x = (np.asarray(values).astype(np.uint64)
         + np.uint64((0x9E3779B97F4A7C15 + salt * 0xBF58476D1CE4E5B9)
                     & _MASK64))
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hash_to_node(value: int, num_nodes: int, salt: int = 0) -> int:
    """Map an integer id onto a node index in ``[0, num_nodes)``."""
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    return stable_hash(value, salt) % num_nodes

"""Activity and FT level one copy at a time: the oracles of the column
reads in ``repro`` (imported by tests only).

A graph keeps activity in its ``active`` column alone and reads each
master's FT level off its SoA image (``ft_levels`` in
``repro.ft._recovery_common``); the walks here read the same facts the
long way round.
"""

from __future__ import annotations

import numpy as np

from repro.engine.messages import RecoveryBatch


def active_gids(lg) -> tuple[set[int], set[int]]:
    """``(active master gids, active other gids)`` of ``lg``: the set
    positions of its ``active`` column, split by each copy's role.
    Stamps nothing (roles come from ``SlotArray.metadata``)."""
    meta = lg.slots.metadata(np.flatnonzero(lg.active))
    master = meta["roles"] == RecoveryBatch.MASTER
    return (set(meta["gids"][master].tolist()),
            set(meta["gids"][~master].tolist()))


def ft_levels(lg) -> dict[int, int]:
    """Master gid -> ``meta.ft_level``, slot by slot, in position
    order."""
    return {slot.gid: slot.meta.ft_level for slot in lg.iter_masters()}

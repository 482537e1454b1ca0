"""The memory model and the copy census one slot at a time: the oracles
of the column sums of ``LocalGraph.memory_nbytes`` (imported by tests
only).

The model follows the compact encodings of the C++ systems: per copy a
64-byte header (object, flags, degrees), its value and its local edges;
a master's or mirror's metadata as a node bitmap (amortised ~1 byte per
replica entry at 50 nodes) plus a 4-byte array position per replica,
one byte per mirror id, an id and a position; a mirror's edge backup.
"""

from __future__ import annotations

from repro.engine.state import Role
from repro.utils.sizing import BYTES_PER_EDGE, BYTES_PER_VID


def slot_nbytes(slot, value_nbytes: int) -> int:
    """One slot's modelled footprint."""
    edges = len(slot.in_edges) + len(slot.out_edges)
    if slot.full_edges is not None:
        edges += len(slot.full_edges)
    meta = slot.meta
    if meta is not None:
        meta = (len(meta.replica_positions) * 5 + len(meta.mirror_nodes)
                + BYTES_PER_VID + 4)
    return 64 + value_nbytes + edges * BYTES_PER_EDGE + (meta or 0)


def memory_nbytes(lg, program) -> int:
    """``lg``'s modelled footprint, slot by slot, at each value's size,
    plus the array itself and the gid index.  Stamps every slot."""
    total = sum(slot_nbytes(slot, program.value_nbytes(slot.value))
                for slot in lg.iter_slots())
    return total + len(lg.slots) * 8 + lg.num_copies * 24


def counts(lg) -> dict[str, int]:
    """``lg``'s copies by role, its FT-only mirrors and its local
    in-edges, slot by slot."""
    out = dict.fromkeys(("masters", "mirrors", "replicas", "ft_replicas",
                         "local_in_edges"), 0)
    for slot in lg.iter_slots():
        out[slot.role.value + "s"] += 1
        out["ft_replicas"] += slot.role is Role.MIRROR and slot.ft_only
        out["local_in_edges"] += len(slot.in_edges)
    out["total"] = out["masters"] + out["mirrors"] + out["replicas"]
    return out

"""Reference edge-ckpt layout: the slot walk ``Engine._write_edge_ckpt_files``
made before it took the receiver as a column.

Kept as the oracle of ``tests/test_lazy_slots.py`` (imported by tests
only): every copy's local in-edges, position order then edge order,
filed under the receiver ``Engine._edge_receiver`` names for the edge's
target — its master's node, else the master's first mirror off the
owner, else the next node round-robin.
"""

from __future__ import annotations

from collections import defaultdict

from repro.ft.edge_ckpt import EdgeRecord


def edge_files(engine) -> dict[int, dict[int, list[EdgeRecord]]]:
    """Owner node -> receiver node -> the records of that file."""
    files = {}
    for node, lg in engine.local_graphs.items():
        by_receiver: dict[int, list[EdgeRecord]] = defaultdict(list)
        for slot in lg.iter_slots():
            if not slot.in_edges:
                continue
            receiver = engine._edge_receiver(slot.gid, node)
            for src_pos, weight in slot.in_edges:
                src_slot = lg.slots[src_pos]
                by_receiver[receiver].append(
                    EdgeRecord(src_slot.gid, slot.gid, weight))
        files[node] = dict(by_receiver)
    return files

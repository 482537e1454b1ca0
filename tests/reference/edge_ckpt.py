"""Reference edge-ckpt rules, one record at a time: the oracles of the
columnar ones in ``repro.ft.edge_ckpt`` / ``repro.ft.checkpoint``
(imported by tests only).

* :func:`edge_files` is the slot walk the loader once wrote its files
  with: every copy's local in-edges, position order then edge order,
  filed under the receiver the slot rule names for the edge's target —
  its master's node, else the master's first mirror off the owner, else
  the next node round-robin.
* :func:`dedupe_edge_records` is the dict-based collapse of update-log
  duplicates that ``dedupe`` replaced: first-occurrence order, last
  weight.

Records are ``(src gid, dst gid, weight)`` tuples; :func:`rows` turns a
column triple into them.
"""

from __future__ import annotations

from collections import defaultdict


def rows(edges) -> list[tuple]:
    """A ``(src, dst, weight)`` column triple as a list of records."""
    return list(zip(*(column.tolist() for column in edges)))


def receiver(engine, target: int, owner: int) -> int:
    """The node that reloads an edge of ``owner`` into ``target``."""
    master = engine.master_node_of[target]
    if master != owner:
        return master
    meta = engine.local_graphs[master].slot_of(target).meta
    for node in meta.mirror_nodes:
        if node != owner:
            return node
    return (owner + 1) % engine.cluster.num_workers


def edge_files(engine) -> dict[int, dict[int, list[tuple]]]:
    """Owner node -> receiver node -> the records of that file."""
    files = {}
    for node, lg in engine.local_graphs.items():
        by_receiver: dict[int, list[tuple]] = defaultdict(list)
        for slot in lg.iter_slots():
            if not slot.in_edges:
                continue
            to = receiver(engine, slot.gid, node)
            for src_pos, weight in slot.in_edges:
                by_receiver[to].append((lg.slots[src_pos].gid, slot.gid,
                                        weight))
        files[node] = dict(by_receiver)
    return files


def dedupe_edge_records(records: list[tuple]) -> list[tuple]:
    """Collapse update-log duplicates, last record wins per edge, in
    first-occurrence order."""
    latest: dict[tuple[int, int], tuple] = {}
    order: list[tuple[int, int]] = []
    for record in records:
        key = record[:2]
        if key not in latest:
            order.append(key)
        latest[key] = record
    return [latest[key] for key in order]

"""Incremental master movement between live nodes (DESIGN.md §14).

:func:`move_master` is the state-transfer primitive behind elastic
joins and drains: it transplants one vertex's master copy from its
current node to a destination *while the job keeps running*, preserving
every invariant the recovery protocols rely on:

* the destination master's in-edge list is rebuilt in the **exact
  order** of the outgoing master's list, so float gather folds stay
  bit-identical to the never-moved run;
* missing source copies are created on the destination the same way
  Migration does ("some new replicas are necessary to retain local
  access semantics", Section 5.2.1);
* the outgoing master is demoted *in place* — to the mirror seat the
  destination vacated when the destination was a mirror, to a plain
  replica otherwise — so the copy count never dips during the move;
* every surviving mirror's full-state edge backup is re-encoded to
  destination positions and its metadata copy refreshed, keeping a
  later failure of the *new* master recoverable.

Moves only run at commit barriers (every copy holds the committed
value, nothing is in flight), which is what makes the in-place demotion
and promotion value-neutral.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.network import Message, MessageKind
from repro.errors import EngineError
from repro.ft import _recovery_common as common
from repro.utils.sizing import BYTES_PER_EDGE, BYTES_PER_VID

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


def move_master(engine: "Engine", gid: int, dst: int) -> int:
    """Move one vertex's master copy to node ``dst``.

    Must run at a commit-barrier boundary; edge-cut only
    (:func:`~repro.membership.manager.check_supported`).  Returns the
    number of bytes shipped (state, edge backups, control traffic),
    already accounted on the network.
    """
    src = int(engine.master_node_of[gid])
    if src == dst:
        return 0
    src_lg = engine.local_graphs[src]
    dst_lg = engine.local_graphs[dst]
    src_slot = src_lg.slot_of(gid)
    if not src_slot.is_master:
        raise EngineError(
            f"vertex {gid}: node {src} does not hold the master")
    program = engine.program
    net = engine.cluster.network
    bytes_sent = 0
    broadcast_flag = src_slot.replicas_known_active

    # -- materialise the master copy on dst -----------------------------
    # (its state ships in the move's own message, booked below)
    if gid not in dst_lg.index_of:
        common.place_replicas(engine, dst, [gid], True)
    dst_slot = dst_lg.slot_of(gid)

    # -- hand the master seat over, then the master's state -------------
    common.hand_over(engine, gid, src, dst)
    dst_slot.clear_pending()
    dst_slot.ft_only = False
    dst_slot.selfish = src_slot.selfish
    dst_slot.value = src_slot.value
    dst_slot.last_activates = src_slot.last_activates
    dst_slot.last_update_iter = src_slot.last_update_iter
    dst_slot.replicas_known_active = broadcast_flag
    dst_slot.mirror_self_active = src_slot.mirror_self_active
    dst_slot.active = src_slot.active

    # -- rebuild the complete in-edge list on dst, in source order ------
    in_edges = src_slot.in_edges
    bytes_sent += common.relink_masters(engine, dst_lg, [dst_slot], [
        common.edge_backup(src_lg, src_slot)])

    # -- the outgoing master, demoted in place --------------------------
    src_slot.clear_pending()
    # A demoted copy holds the flag the master last broadcast, exactly
    # like every other replica.
    src_slot.active = broadcast_flag

    # -- every mirror re-seated on the new master's full state ----------
    meta = dst_slot.meta
    bytes_sent += common.publish(engine, dst_lg, dst_slot, meta.mirror_nodes)
    engine.master_node_of[gid] = dst

    # -- traffic accounting ---------------------------------------------
    state_nbytes = (program.value_nbytes(src_slot.value) + BYTES_PER_VID
                    + len(in_edges) * BYTES_PER_EDGE)
    net.send(Message(MessageKind.RECOVERY, src, dst,
                     ("move-master", gid), state_nbytes))
    bytes_sent += state_nbytes
    # Every copy learns the new location (control traffic).
    bytes_sent += common.announce_master(engine, gid, meta)
    # Its write set, dropped now: the next move reads through it.
    for node in {src, dst, *meta.replica_positions}:
        engine.local_graphs[node].invalidate_soa()
    return bytes_sent


def prune_node_copies(engine: "Engine", node: int) -> list[int]:
    """Remove every remaining copy hosted on a fully drained node.

    All masters must already have been moved off.  Each removed copy is
    deregistered from its master's (and the mirrors') metadata; the
    returned gids should be passed to ``restore_ft_level`` so vertices
    that lost a mirror get a fresh one elsewhere.
    """
    lg = engine.local_graphs[node]
    affected: list[int] = []
    for slot in list(lg.iter_slots()):
        gid = slot.gid
        if slot.is_master:
            raise EngineError(
                f"vertex {gid} still mastered on draining node {node}")
        for meta in common.metadata_copies(engine, gid):
            common.forget_nodes(meta, (node,))
        lg.remove_slot(gid)
        affected.append(gid)
    return affected

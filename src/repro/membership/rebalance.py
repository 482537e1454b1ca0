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
from repro.engine.state import MasterMeta, Role, VertexSlot
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
    src = engine.master_node_of[gid]
    if src == dst:
        return 0
    src_lg = engine.local_graphs[src]
    dst_lg = engine.local_graphs[dst]
    src_slot = src_lg.slot_of(gid)
    if not src_slot.is_master:
        raise EngineError(
            f"vertex {gid}: node {src} does not hold the master")
    meta = src_slot.meta
    program = engine.program
    net = engine.cluster.network
    bytes_sent = 0
    broadcast_flag = src_slot.replicas_known_active
    dst_was_mirror = dst in meta.mirror_set

    # -- materialise the master copy on dst -----------------------------
    if gid in dst_lg.index_of:
        dst_slot = dst_lg.slot_of(gid)
        dst_pos = dst_lg.position_of(gid)
    else:
        dst_pos = len(dst_lg.slots)
        dst_slot = VertexSlot(gid=gid, role=Role.REPLICA,
                              out_degree=src_slot.out_degree,
                              in_degree=src_slot.in_degree,
                              master_node=src,
                              selfish=src_slot.selfish)
        dst_slot.value = src_slot.value
        dst_lg.add_slot(dst_slot, position=dst_pos)
    dst_slot.clear_pending()
    dst_slot.role = Role.MASTER
    dst_slot.mirror_id = -1
    dst_slot.ft_only = False
    dst_slot.selfish = src_slot.selfish
    dst_slot.value = src_slot.value
    dst_slot.last_activates = src_slot.last_activates
    dst_slot.last_update_iter = src_slot.last_update_iter
    dst_slot.replicas_known_active = broadcast_flag
    dst_slot.mirror_self_active = src_slot.mirror_self_active
    dst_slot.master_node = dst
    dst_lg.set_active(dst_slot, src_slot.active)

    # -- rebuild the complete in-edge list on dst, in source order ------
    new_in: list[tuple[int, float]] = []
    for src_pos, weight in src_slot.in_edges:
        source_gid = src_lg.slots[src_pos].gid
        if source_gid in dst_lg.index_of:
            p = dst_lg.index_of[source_gid]
        else:
            p, nbytes = common.create_replica(engine, source_gid, dst)
            bytes_sent += nbytes
        dst_lg.slots[p].out_edges.append(dst_pos)
        new_in.append((p, weight))
    dst_slot.in_edges = new_in
    dst_slot.full_edges = [(dst_lg.slots[p].gid, p, w) for p, w in new_in]

    # -- rewrite the replica/mirror metadata ----------------------------
    new_positions = {n: p for n, p in meta.replica_positions.items()
                     if n != dst}
    new_positions[src] = src_lg.position_of(gid)
    new_mirrors = list(meta.mirror_nodes)
    if dst_was_mirror:
        # The outgoing master inherits the destination's mirror seat
        # (same index, so the recovery-leader ordering is preserved and
        # the mirror count never changes).
        new_mirrors[new_mirrors.index(dst)] = src
    dst_slot.meta = MasterMeta(replica_positions=new_positions,
                               mirror_nodes=new_mirrors,
                               master_node=dst, master_position=dst_pos)

    # -- demote the outgoing master in place ----------------------------
    src_slot.clear_pending()
    src_slot.role = Role.MIRROR if src in new_mirrors else Role.REPLICA
    src_slot.meta = None
    src_slot.mirror_id = -1
    src_slot.master_node = dst
    # A demoted copy holds the flag the master last broadcast, exactly
    # like every other replica.
    src_lg.set_active(src_slot, broadcast_flag)
    src_slot.full_edges = None

    # -- refresh every copy's view of the new location ------------------
    for n in new_positions:
        other = engine.local_graphs[n].slot_of(gid)
        other.master_node = dst
    for idx, n in enumerate(new_mirrors):
        mslot = engine.local_graphs[n].slot_of(gid)
        mslot.role = Role.MIRROR
        mslot.mirror_id = idx
        mslot.mirror_self_active = dst_slot.mirror_self_active
        mslot.meta = MasterMeta(replica_positions=dict(new_positions),
                                mirror_nodes=list(new_mirrors),
                                master_node=dst, master_position=dst_pos)
        mslot.full_edges = list(dst_slot.full_edges)
        bytes_sent += len(dst_slot.full_edges) * BYTES_PER_EDGE + 64
    engine.master_node_of[gid] = dst

    # -- traffic accounting ---------------------------------------------
    state_nbytes = (program.value_nbytes(src_slot.value) + BYTES_PER_VID
                    + len(new_in) * BYTES_PER_EDGE)
    net.send(Message(MessageKind.RECOVERY, src, dst,
                     ("move-master", gid), state_nbytes))
    bytes_sent += state_nbytes
    for n in sorted(new_positions):
        net.send(Message(MessageKind.CONTROL, dst, n,
                         ("new-master", gid, dst), BYTES_PER_VID + 4))
        bytes_sent += BYTES_PER_VID + 4
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
        master_node = engine.master_node_of[gid]
        master_slot = engine.local_graphs[master_node].slot_of(gid)
        meta = master_slot.meta
        if meta is not None:
            meta.replica_positions.pop(node, None)
            if node in meta.mirror_set:
                meta.mirror_nodes = [n for n in meta.mirror_nodes
                                     if n != node]
            meta.invalidate_replica_cache()
            for mn in meta.mirror_nodes:
                mslot = engine.local_graphs[mn].slot_of(gid)
                if mslot.meta is not None:
                    mslot.meta.replica_positions.pop(node, None)
                    mslot.meta.mirror_nodes = [
                        n for n in mslot.meta.mirror_nodes if n != node]
                    mslot.meta.invalidate_replica_cache()
        lg.remove_slot(gid)
        affected.append(gid)
    return affected

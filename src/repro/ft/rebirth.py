"""Rebirth-based recovery (Section 5.1).

A standby machine takes over each crashed node's logical identity and
its graph state is reconstructed from the surviving replicas:

* every surviving **master** checks its replica locations and re-sends
  any copies that lived on crashed nodes;
* every surviving **mirror** whose master crashed re-sends the master's
  full state (value, in-edge list under edge-cut, replica locations,
  array position) — only the lowest-id surviving mirror acts
  (Section 5.3.1), and it also re-sends replicas lost on *other*
  crashed nodes on the dead master's behalf;
* under vertex-cut the newbie reloads the crashed node's edge-ckpt
  files from persistent storage, overlapped with the vertex transfer
  (Section 5.2.1 discusses the same overlap for Migration).

Reconstruction is positional and lock-free; under edge-cut it happens
while messages arrive, so the phase reports zero explicit time
(Fig. 9a shows no reconstruction bar for Rebirth).  Replay re-executes
activation operations on the new node only.

Write set (DESIGN.md §11): the reborn nodes' fresh ``LocalGraph``s only —
survivors read and send, so their SoA images and FT census stay valid.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from repro.cluster.network import Message, MessageKind
from repro.costmodel import storage_read_time
from repro.engine.local_graph import LocalGraph
from repro.engine.messages import RecoveryBatch
from repro.errors import NoStandbyNodeError, UnrecoverableFailureError
from repro.ft import _recovery_common as common
from repro.ft.recovery import RecoveryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


class RebirthRecovery:
    """Recover crashed nodes onto standby machines."""

    #: This rung's label in ``rungs_attempted`` and the trace.
    rung = "rebirth"

    def __init__(self, engine: "Engine"):
        self.engine = engine

    def recover(self, failed: tuple[int, ...]) -> RecoveryStats:
        engine = self.engine
        model = engine.model
        failed_set = set(failed)
        # Precondition: a *live* standby per crashed node, checked up
        # front — a doomed Rebirth must not consume spares and empty
        # local graphs on its way to failing.
        spares = engine.cluster.live_standby_nodes()
        if len(spares) < len(failed):
            engine.tracer.instant(
                "recovery.standby_exhausted", cat="recovery",
                spares=len(spares), needed=len(failed))
            raise NoStandbyNodeError(
                f"Rebirth of nodes {list(failed)} needs as many live "
                f"standbys, {len(spares)} available")
        stats = RecoveryStats(strategy="rebirth", failed_nodes=failed,
                              newbie_nodes=failed)

        # The newbies join the barrier group under the crashed ids.
        for node in failed:
            engine.cluster.replace_node(node)
            fresh = LocalGraph(node)
            engine.local_graphs[node] = fresh
            engine.cluster.node(node).local = fresh

        survivors = [n for n in engine._alive() if n not in failed_set]

        # ---------------- Reloading ----------------
        batches: dict[tuple[int, int], RecoveryBatch] = {}

        def batch(src: int, dst: int) -> RecoveryBatch:
            key = (src, dst)
            if key not in batches:
                batches[key] = RecoveryBatch(
                    src_node=src, iteration=engine.iteration)
            return batches[key]

        scan_cost: dict[int, int] = defaultdict(int)
        recovered_masters: list[int] = []
        selfish_recovered: list[int] = []
        selfish_opt = engine.selfish_opt_active
        for node in survivors:
            lg = engine.local_graphs[node]
            for slot in lg.iter_slots():
                scan_cost[node] += 1
                if slot.is_master:
                    meta = slot.meta
                    for replica_node, position in sorted(
                            meta.replica_positions.items()):
                        if replica_node in failed_set:
                            rv = common.snapshot_replica_state(
                                lg, slot, replica_node, position,
                                engine.is_edge_cut)
                            batch(node, replica_node).vertices.append(rv)
                elif slot.is_mirror and slot.master_node in failed_set:
                    meta = slot.meta
                    if common.surviving_recoverer(meta, failed_set) != node:
                        continue  # a lower-id mirror leads this vertex
                    rv = common.snapshot_master_full_state(
                        lg, slot, meta.master_position, engine.is_edge_cut)
                    batch(node, slot.master_node).vertices.append(rv)
                    recovered_masters.append(slot.gid)
                    if slot.selfish and selfish_opt:
                        selfish_recovered.append(slot.gid)
                    # Recover replicas lost on *other* crashed nodes on
                    # the dead master's behalf.
                    for replica_node, position in sorted(
                            meta.replica_positions.items()):
                        if replica_node in failed_set \
                                and replica_node != node:
                            rv = common.snapshot_replica_state(
                                lg, slot, replica_node, position,
                                engine.is_edge_cut, from_mirror=True)
                            batch(node, replica_node).vertices.append(rv)

        # Detect unrecoverable vertices: masters on crashed nodes whose
        # mirrors all crashed too.
        common.check_recoverable(engine, failed_set, self.rung,
                                 set(recovered_masters))

        # Ship the batches (counted as RECOVERY traffic).
        net = engine.cluster.network
        net.begin_step()
        value_nbytes = engine.program.value_nbytes
        for (src, dst), payload in sorted(batches.items()):
            nbytes = payload.nbytes(value_nbytes)
            net.send(Message(MessageKind.RECOVERY, src, dst, payload,
                             nbytes))
            stats.recovery_messages += 1
            stats.recovery_bytes += nbytes

        # Per-survivor reload time: scan + serialisation/send; the
        # newbies receive concurrently.  Vertex-cut newbies also stream
        # the crashed nodes' edge-ckpt files, overlapped with receive.
        scale = model.data_scale
        reload_times = []
        for node in survivors:
            scan = scan_cost[node] * model.per_vertex_scan_s * scale
            comm = _comm_time(engine, net, node)
            reload_times.append(scan + comm)
        dfs_time = 0.0
        edge_records: dict[int, list] = {}
        if not engine.is_edge_cut and engine.edge_ckpt is not None:
            from repro.ft.edge_ckpt import dedupe_edge_records
            for node in failed:
                records = dedupe_edge_records(
                    engine.edge_ckpt.read_all(node))
                edge_records[node] = records
                nbytes = sum(engine.edge_ckpt.file_nbytes(node, r)
                             for r in range(engine.cluster.num_workers))
                # The newbie streams all files as one pipelined
                # sequential scan, overlapped with the vertex transfer
                # (Section 6.10: Rebirth "can overlap the reloading of
                # edges from persistent storage with that of vertices").
                dfs_time = max(dfs_time, storage_read_time(
                    model, nbytes, 1, in_memory=False))
        newbie_recv = max((_comm_time(engine, net, node) for node in failed),
                          default=0.0)
        stats.reload_s = (max(max(reload_times, default=0.0),
                              newbie_recv, dfs_time)
                          + model.recovery_round_s)

        # ---------------- Reconstruction ----------------
        last_commit = common.last_committed_iteration(engine)
        for node in failed:
            lg = engine.local_graphs[node]
            for msg in net.deliver(node):
                for rv in msg.payload.vertices:
                    common.place_recovered_vertex(lg, rv, last_commit)
                    stats.vertices_recovered += 1
        reconstruct_times = []
        for node in failed:
            lg = engine.local_graphs[node]
            if engine.is_edge_cut:
                linked = common.relink_edge_cut_topology(lg)
            else:
                linked = self._link_vertex_cut(lg, edge_records[node])
            stats.edges_recovered += linked
            cost = (len(lg.index_of) * model.per_vertex_reconstruct_s
                    + linked * model.per_edge_compute_s) * model.data_scale
            reconstruct_times.append(cost)
        if engine.is_edge_cut:
            # Reconstruction happens while messages arrive: fold its
            # cost into reload and report no explicit phase (Fig. 9a).
            stats.reconstruct_s = 0.0
        else:
            stats.reconstruct_s = max(reconstruct_times, default=0.0)

        # ---------------- Replay ----------------
        replay_ops = common.replay_activations(engine, list(failed), None)
        if not engine.is_edge_cut:
            # A vertex-cut master's in-edges span nodes: activations
            # scattered along the survivors' edges reached the dead
            # master as remote signals, which only they can re-send.
            replay_ops += common.replay_activations(
                engine, survivors, set(recovered_masters))
        replay_edges = common.recompute_selfish_masters(
            engine, sorted(selfish_recovered))
        # Each newbie replays its own node's operations concurrently
        # (Fig. 15b: Rebirth stays nearly flat as crashed nodes grow).
        stats.replay_s = ((replay_ops * model.per_vertex_reconstruct_s
                           + replay_edges * model.per_edge_compute_s)
                          * model.data_scale / max(1, len(failed)))
        tracer = engine.tracer
        tracer.record("rebirth.reload", stats.reload_s, cat="recovery",
                      recovery_bytes=stats.recovery_bytes,
                      vertices=stats.vertices_recovered)
        tracer.record("rebirth.reconstruct", stats.reconstruct_s,
                      cat="recovery", edges=stats.edges_recovered)
        tracer.record("rebirth.replay", stats.replay_s, cat="recovery",
                      replay_ops=replay_ops)
        return stats

    # -- helpers --------------------------------------------------------

    def _link_vertex_cut(self, lg: LocalGraph, records) -> int:
        """Rebuild a vertex-cut newbie's topology from edge-ckpt files."""
        lg.invalidate_soa()  # edge lists are rewritten past the last add_slot
        for slot in lg.iter_slots():
            slot.in_edges = []
            slot.out_edges = []
        linked = 0
        for record in records:
            src_pos = lg.index_of.get(record.src)
            dst_pos = lg.index_of.get(record.dst)
            if src_pos is None or dst_pos is None:
                raise UnrecoverableFailureError(
                    f"edge ({record.src}, {record.dst}) endpoints missing "
                    f"after reconstruction on node {lg.node_id}")
            lg.slots[dst_pos].in_edges.append((src_pos, record.weight))
            lg.slots[src_pos].out_edges.append(dst_pos)
            linked += 1
        return linked


def _comm_time(engine: "Engine", net, node: int) -> float:
    from repro.costmodel import pairwise_comm_time
    return pairwise_comm_time(engine.model, net.step_bytes, net.step_msgs,
                              node)

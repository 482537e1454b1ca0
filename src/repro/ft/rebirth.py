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

Reloading is a function of each survivor's own image: the ladder pass's
:class:`~repro.ft._recovery_common.SurvivorScan` (one mask pass, one
metadata read) names the leading mirrors among its mirrors of dead
masters, and the ``sync_plan`` / ``sync_peer`` of its masters their
copies on a crashed node; the rows are packed into one columnar
:class:`~repro.engine.messages.RecoveryBatch` per (survivor, newbie),
values in their column's dtype.
Reconstruction is positional and lock-free: each newbie is built whole
from the columns it received — slots, edges and SoA image in one
pass (:func:`~repro.ft._recovery_common.reborn_graph`).  Under
edge-cut it happens while messages arrive, so the phase reports zero
explicit time (Fig. 9a shows no reconstruction bar for Rebirth).  Replay
re-executes activation operations on the new node only.

Write set (DESIGN.md §11): the reborn nodes' new ``LocalGraph``s only —
survivors read and send, so their SoA images stay valid.
Each reads its metadata once per ladder pass, as columns
(``SlotArray.metadata``), so a Rebirth stamps no slot anywhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.network import Message, MessageKind
from repro.costmodel import storage_read_time
from repro.engine.local_graph import LocalGraph
from repro.engine.messages import RecoveryBatch, csr_first
from repro.errors import NoStandbyNodeError
from repro.ft import _recovery_common as common
from repro.ft.edge_ckpt import NO_EDGES, Edges, dedupe
from repro.ft.recovery import RecoveryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


class RebirthRecovery:
    """Recover crashed nodes onto standby machines."""

    #: This rung's label in ``rungs_attempted`` and the trace.
    rung = "rebirth"

    def __init__(self, engine: "Engine",
                 scan: common.ReloadScan | None = None):
        self.engine = engine
        #: The ladder pass's reload scan; a direct call makes its own.
        self.scan = scan

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
        # Detect unrecoverable vertices: masters on crashed nodes whose
        # mirrors all crashed too.
        scan = self.scan or common.ReloadScan(engine, failed_set)
        common.check_recoverable(engine, scan, self.rung)
        stats = RecoveryStats(strategy="rebirth", failed_nodes=failed,
                              newbie_nodes=failed)

        # The newbies join the barrier group under the crashed ids.
        for node in failed:
            engine.cluster.replace_node(node)
            fresh = LocalGraph(node)
            engine.local_graphs[node] = fresh
            engine.cluster.node(node).local = fresh

        survivors = scan.survivors

        # ---------------- Reloading ----------------
        # Each survivor selects off its scan (DESIGN.md §11): its
        # masters' copies on a crashed node come straight out of
        # ``sync_plan`` / ``sync_peer``; the dead masters it leads are
        # the ones it holds the lowest surviving mirror of (Section
        # 5.3.1), and it also re-sends their copies lost on *other*
        # crashed nodes on their behalf.
        batches: dict[tuple[int, int], RecoveryBatch] = {}
        scan_cost: dict[int, int] = {}
        selfish_recovered = [np.zeros(0, dtype=np.int64)]
        for node in survivors:
            survivor = scan.nodes[node]
            topo, lead = survivor.topo, survivor.lead
            scan_cost[node] = engine.local_graphs[node].num_copies
            if engine.selfish_opt_active:
                selfish_recovered.append(topo.gids[lead[topo.selfish[lead]]])
            for dst in failed:
                pos, peer, roles = _rows_for(survivor, dst)
                if pos.size:
                    batches[(node, dst)] = common.pack_rows(
                        engine, node, pos, roles, dst, peer,
                        survivor.meta_of)
            # Packed: the read is not held through reconstruction.
            survivor.meta = None

        # Ship the batches (counted as RECOVERY traffic).
        net = engine.cluster.network
        net.begin_step()
        for (src, dst), payload in sorted(batches.items()):
            nbytes = payload.nbytes(engine.program)
            net.send(Message(MessageKind.RECOVERY, src, dst, payload,
                             nbytes))
            stats.recovery_messages += 1
            stats.recovery_bytes += nbytes
        del batches  # in flight: the network holds them until delivery

        # Per-survivor reload time: scan + serialisation/send; the
        # newbies receive concurrently.  Vertex-cut newbies also stream
        # the crashed nodes' edge-ckpt files, overlapped with receive.
        scale = model.data_scale
        reload_times = []
        for node in survivors:
            reload_times.append(scan_cost[node] * model.per_vertex_scan_s
                                * scale + _comm_time(engine, net, node))
        dfs_time = 0.0
        reloaded: dict[int, Edges] = {}
        if engine.ckpt.edges is not None:  # vertex-cut only
            for node in failed:
                edges, nbytes = engine.ckpt.edges.read_all(node)
                reloaded[node] = dedupe(edges)
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
        # Each newbie is built whole from the rows it received: slots,
        # edges and SoA image in one pass (DESIGN.md §11).
        last_commit = common.last_committed_iteration(engine)
        reconstruct_times = []
        for node in failed:
            rows = RecoveryBatch.merge(
                [msg.payload for msg in net.deliver(node)])
            lg, linked = common.reborn_graph(
                node, rows, last_commit, engine.is_edge_cut,
                reloaded.get(node, NO_EDGES))
            engine.local_graphs[node] = lg
            engine.cluster.node(node).local = lg
            stats.vertices_recovered += lg.num_copies
            stats.edges_recovered += linked
            cost = (lg.num_copies * model.per_vertex_reconstruct_s
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
                engine, survivors, scan.led)
        replay_edges = common.recompute_selfish_masters(
            engine, np.sort(np.concatenate(selfish_recovered)).tolist())
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


def _rows_for(survivor: common.SurvivorScan, dst: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a survivor ships to the newbie ``dst``, read off its scan:
    positions here, positions there and roles of its masters' copies on
    ``dst``, of the dead masters ``dst`` held, and of the copies on
    ``dst`` of dead masters held elsewhere."""
    topo, lead, meta = survivor.topo, survivor.lead, survivor.meta
    rows = survivor.lead_rows
    pos, peer, mirror = topo.copies_on(dst)
    held = topo.master_node[lead] == dst
    entry = csr_first(meta["replica_ptr"], meta["replica_nodes"] == dst)[rows]
    seat = csr_first(meta["mirror_ptr"], meta["mirror_nodes"] == dst)[rows]
    copied = entry >= 0
    return (np.concatenate((pos, lead[held], lead[copied])),
            np.concatenate((peer, meta["master_position"][rows[held]],
                            meta["replica_positions"][entry[copied]])),
            np.concatenate((
                np.where(mirror, RecoveryBatch.MIRROR, RecoveryBatch.REPLICA),
                np.full(int(held.sum()), RecoveryBatch.MASTER),
                np.where(seat[copied] >= 0, RecoveryBatch.MIRROR,
                         RecoveryBatch.REPLICA))))


def _comm_time(engine: "Engine", net, node: int) -> float:
    from repro.costmodel import pairwise_comm_time
    return pairwise_comm_time(engine.model, net.step_bytes, net.step_msgs,
                              node)

"""Migration-based recovery (Section 5.2).

No standby machines: the crashed nodes' work scatters across the
survivors.

* Each surviving node scans its **mirrors**; the lowest-id surviving
  mirror of a crashed master is **promoted** to master in place.
* Under edge-cut the promoted mirror already holds the master's full
  in-edge list; sources without a local copy get **new replicas**
  created (the paper's "replica 6 on Node1" case), fetched from their
  masters.
* Under vertex-cut each survivor exclusively reloads one pre-assigned
  edge-ckpt file of the crashed node from persistent storage, in
  parallel (Section 5.2.1), creating missing endpoint replicas the same
  way.
* Location updates flow to every surviving copy, and the replay phase
  fixes activation state for the promoted masters only.  Restoring the
  fault-tolerance level (invariant P6: new FT replicas + mirrors) is
  the engine's post-recovery repair pass, shared by every recovery
  strategy (DESIGN.md §9).
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

import numpy as np

from repro.costmodel import pairwise_comm_time, storage_read_time
from repro.errors import UnrecoverableFailureError
from repro.ft import _recovery_common as common
from repro.ft.edge_ckpt import (Edges, by_receiver, concat_edges, dedupe,
                                receivers_of)
from repro.ft.recovery import RecoveryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


class MigrationRecovery:
    """Scatter a crashed node's work across the survivors."""

    #: This rung's label in ``rungs_attempted`` and the trace.
    rung = "migration"

    def __init__(self, engine: "Engine",
                 scan: common.ReloadScan | None = None):
        self.engine = engine
        #: The ladder pass's reload scan; a direct call makes its own.
        self.scan = scan

    def recover(self, failed: tuple[int, ...]) -> RecoveryStats:
        engine = self.engine
        model = engine.model
        failed_set = set(failed)
        stats = RecoveryStats(strategy="migration", failed_nodes=failed)
        survivors = [n for n in engine._alive() if n not in failed_set]
        # Precondition: a survivor to scatter the crashed nodes' work onto.
        if not survivors:
            raise UnrecoverableFailureError(
                "every worker node crashed",
                lost_vertices=len(engine.master_node_of),
                rungs_attempted=(self.rung,))
        scan = self.scan or common.ReloadScan(engine, failed_set)
        common.check_recoverable(engine, scan, self.rung)

        # ---------------- Reloading: promotion ----------------
        # The leading mirrors of the ladder pass's scan are promoted.
        promotions: list[tuple[int, int]] = []  # (gid, new master node)
        selfish_promoted: list[int] = []
        scan_cost: dict[int, int] = {}
        holders = {}  # node -> metadata positions (promotion keeps them)
        selfish_opt = engine.selfish_opt_active
        for node in survivors:
            scan_cost[node] = engine.local_graphs[node].num_copies
            topo, lead = scan.nodes[node].topo, scan.nodes[node].lead
            holders[node] = np.flatnonzero(topo.is_master | topo.is_mirror)
            for gid, selfish in zip(topo.gids[lead].tolist(),
                                    topo.selfish[lead].tolist()):
                promotions.append((gid, node))
                if selfish and selfish_opt:
                    selfish_promoted.append(gid)

        for gid, node in promotions:
            self._promote(gid, node, failed_set)
            engine.master_node_of[gid] = node
        stats.vertices_recovered += len(promotions)

        # Every metadata copy on a survivor drops the crashed nodes:
        # masters' and mirrors' alike, since a mirror may be promoted in
        # a *later* failure and would otherwise resurrect dead replica
        # locations.  Restoring the fault-tolerance level for vertices
        # that lost copies is the engine's post-recovery repair pass (it
        # runs after *every* successful recovery, whatever the rung —
        # DESIGN.md §9).
        for node in survivors:
            lg = engine.local_graphs[node]
            for slot in lg.slots.take(holders[node]):
                common.forget_nodes(slot.meta, failed_set)
            # Write set (DESIGN.md §11): every survivor's roles and
            # metadata.
            lg.invalidate_soa()

        # ---------------- Reloading: edges ----------------
        net = engine.cluster.network
        net.begin_step()
        dfs_time = 0.0
        edges_relinked = 0
        if engine.is_edge_cut:
            edges_relinked = self._relink_promoted_edge_cut(promotions)
        else:
            dfs_time, edges_relinked = self._reload_vertex_cut_edges(
                failed, survivors)
        stats.edges_recovered = edges_relinked

        # Location updates: every promoted master informs its surviving
        # copies of the new master node (control traffic).
        for gid, node in promotions:
            common.announce_master(
                engine, gid, engine.local_graphs[node].slot_of(gid).meta)
        for node in survivors:
            net.deliver(node)

        scale = model.data_scale
        reload_times = []
        for node in survivors:
            comm = pairwise_comm_time(model, net.step_bytes, net.step_msgs,
                                      node)
            reload_times.append(
                scan_cost[node] * model.per_vertex_scan_s * scale + comm)
        # Migration needs several cluster-wide coordination rounds:
        # promotion, replica creation, location updates, commit
        # (Section 6.4: "multiple rounds of message exchanges").
        rounds = 4
        stats.reload_s = (max(max(reload_times, default=0.0), dfs_time)
                          + rounds * model.recovery_round_s)
        stats.recovery_messages = sum(
            sum(by_dst.values()) for by_dst in net.step_msgs.values())
        stats.recovery_bytes += sum(
            sum(by_dst.values()) for by_dst in net.step_bytes.values())

        # ---------------- Reconstruction ----------------
        stats.reconstruct_s = (
            len(promotions) * model.per_vertex_reconstruct_s
            + edges_relinked * model.per_edge_compute_s
        ) * scale / max(1, len(survivors))

        # ---------------- Replay ----------------
        replay_ops = common.replay_activations(engine, survivors, scan.led)
        replay_edges = common.recompute_selfish_masters(
            engine, sorted(selfish_promoted))
        stats.replay_s = ((replay_ops * model.per_vertex_reconstruct_s
                           + replay_edges * model.per_edge_compute_s)
                          * scale / max(1, len(survivors)))
        tracer = engine.tracer
        tracer.record("migration.reload", stats.reload_s, cat="recovery",
                      promotions=len(promotions),
                      coordination_rounds=rounds)
        tracer.record("migration.reconstruct", stats.reconstruct_s,
                      cat="recovery", edges=edges_relinked)
        tracer.record("migration.replay", stats.replay_s, cat="recovery",
                      replay_ops=replay_ops)
        return stats

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------

    def _promote(self, gid: int, node: int, failed_set: set[int]) -> None:
        """Turn a surviving mirror into the vertex's master."""
        lg = self.engine.local_graphs[node]
        slot = lg.slot_of(gid)
        # The metadata now lists the copies around the new location.
        common.forget_nodes(slot.meta, failed_set | {node})
        common.crown(lg, slot, slot.meta)
        # The promoted copy's dynamic state: value is the synced one;
        # activity starts from the master's self-sustained flag and the
        # replay phase adds back neighbor activations.  The surviving
        # replicas' gather flags reflect the old master's last
        # broadcast, which the mirror's own flag also carried.
        old_gather_flag = slot.active
        slot.active = slot.mirror_self_active
        slot.replicas_known_active = old_gather_flag

    # ------------------------------------------------------------------
    # edge recovery
    # ------------------------------------------------------------------

    def _relink_promoted_edge_cut(self, promotions: list[tuple[int, int]]
                                  ) -> int:
        """Rebuild promoted masters' local in-edges from full state.

        Sources without a local copy get new replicas, a batch per node,
        fetched from their masters (counted as recovery traffic).
        """
        engine = self.engine
        by_node: dict[int, list] = defaultdict(list)
        for gid, node in promotions:
            slot = engine.local_graphs[node].slot_of(gid)
            if slot.full_edges is None:
                raise UnrecoverableFailureError(
                    f"mirror of vertex {gid} lacks the full edge copy")
            by_node[node].append(slot)
        for node, masters in by_node.items():
            common.relink_masters(engine, engine.local_graphs[node], masters,
                                  [slot.full_edges for slot in masters])
        return sum(len(slot.in_edges) for masters in by_node.values()
                   for slot in masters)

    def _reload_vertex_cut_edges(self, failed: tuple[int, ...],
                                 survivors: list[int]
                                 ) -> tuple[float, int]:
        """Each survivor reloads its pre-assigned edge-ckpt files.

        Returns ``(max parallel DFS read time, edges relinked)``.
        """
        engine = self.engine
        store = engine.ckpt.edges
        assert store is not None
        model = engine.model
        dfs_time = 0.0
        linked = 0
        survivor_set = set(survivors)
        # Route every existing file of a crashed owner to a surviving
        # absorber.  Receivers were fixed when the file was written, so
        # after earlier migrations a file's designated receiver may be
        # long dead — the lowest survivor absorbs those (and files whose
        # receiver crashed in this very failure).
        buckets: dict[int, list[Edges]] = defaultdict(list)
        io_cost: dict[int, tuple[int, int]] = defaultdict(lambda: (0, 0))
        for crashed in failed:
            for receiver in store.receivers(crashed):
                part = store.read_file(crashed, receiver)
                if not part[0].size:
                    continue
                absorber = (receiver if receiver in survivor_set
                            else survivors[0])
                buckets[absorber].append(part)
                nbytes, reads = io_cost[absorber]
                io_cost[absorber] = (
                    nbytes + store.file_nbytes(crashed, receiver), reads + 1)
        # An edge may sit in several files (its receiver changed across
        # recoveries); reconstruct each exactly once, cluster-wide.
        applied = np.zeros(0, dtype=np.int64)
        stride = engine.graph.num_vertices
        for absorber in survivors:
            src, dst, weight = dedupe(concat_edges(buckets[absorber]))
            key = src * stride + dst
            fresh = ~np.isin(key, applied)
            applied = np.concatenate([applied, key[fresh]])
            if fresh.any():
                linked += self._apply_edges(
                    absorber, (src[fresh], dst[fresh], weight[fresh]))
            nbytes, reads = io_cost[absorber]
            dfs_time = max(dfs_time, storage_read_time(
                model, nbytes, max(1, reads), in_memory=False))
        return dfs_time, linked

    def _apply_edges(self, node: int, edges: Edges) -> int:
        """Attach reloaded edges to local slots, creating missing copies."""
        engine = self.engine
        src, dst, weight = edges
        common.link_edges(engine, node, zip(src.tolist(), dst.tolist(),
                                            weight.tolist()))
        # Future failures of this node must also recover the edges it
        # just absorbed: append them to its own edge-ckpt files, one
        # chunk per receiver, overlapped with resumed execution (bytes
        # counted, no normal-execution time charged).
        for to, chunk in by_receiver(receivers_of(engine, dst, node),
                                     edges).items():
            engine.ckpt.edges.log(node, to, chunk)
        return src.size

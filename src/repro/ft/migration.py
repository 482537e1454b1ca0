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

from repro.cluster.network import Message, MessageKind
from repro.costmodel import pairwise_comm_time, storage_read_time
from repro.engine.state import Role
from repro.errors import UnrecoverableFailureError
from repro.ft import _recovery_common as common
from repro.ft.edge_ckpt import EdgeRecord
from repro.ft.recovery import RecoveryStats
from repro.utils.sizing import BYTES_PER_VID

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


class MigrationRecovery:
    """Scatter a crashed node's work across the survivors."""

    #: This rung's label in ``rungs_attempted`` and the trace.
    rung = "migration"

    def __init__(self, engine: "Engine"):
        self.engine = engine

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

        # ---------------- Reloading: promotion ----------------
        promotions: list[tuple[int, int]] = []  # (gid, new master node)
        selfish_promoted: list[int] = []
        scan_cost: dict[int, int] = {}
        selfish_opt = engine.selfish_opt_active
        for node in survivors:
            lg = engine.local_graphs[node]
            scan_cost[node] = len(lg.index_of)
            lead, _ = common.leading_mirrors(engine, node, failed_set)
            topo = lg.topology()
            for gid, selfish in zip(topo.gids[lead].tolist(),
                                    topo.selfish[lead].tolist()):
                promotions.append((gid, node))
                if selfish and selfish_opt:
                    selfish_promoted.append(gid)
        promoted = {gid for gid, _ in promotions}
        common.check_recoverable(engine, failed_set, self.rung, promoted)

        for gid, node in promotions:
            self._promote(gid, node, failed_set)
            engine.master_node_of[gid] = node
        stats.vertices_recovered += len(promotions)

        # Surviving masters drop crashed replica locations.  Restoring
        # the fault-tolerance level for vertices that lost copies is the
        # engine's post-recovery repair pass (it runs after *every*
        # successful recovery, whatever the rung — DESIGN.md §9).
        for node in survivors:
            lg = engine.local_graphs[node]
            for slot in lg.iter_slots():
                meta = slot.meta
                if meta is None:
                    continue
                for crashed in list(meta.replica_positions):
                    if crashed in failed_set:
                        del meta.replica_positions[crashed]
                # Mirrors' metadata copies must be pruned too: one of
                # them may be promoted to master in a *later* failure
                # and would otherwise resurrect dead replica locations.
                meta.mirror_nodes = [n for n in meta.mirror_nodes
                                     if n not in failed_set]
                meta.invalidate_replica_cache()
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
            meta = engine.local_graphs[node].slot_of(gid).meta
            for replica_node in sorted(meta.replica_positions):
                slot = engine.local_graphs[replica_node].slot_of(gid)
                slot.master_node = node
                if slot.meta is not None:
                    slot.meta.master_node = node
                    slot.meta.master_position = meta.master_position
                net.send(Message(MessageKind.CONTROL, node, replica_node,
                                 ("new-master", gid, node),
                                 BYTES_PER_VID + 4))
        for node in survivors:
            net.deliver(node)

        scale = model.data_scale
        reload_times = []
        for node in survivors:
            scan = scan_cost[node] * model.per_vertex_scan_s * scale
            comm = pairwise_comm_time(model, net.step_bytes, net.step_msgs,
                                      node)
            reload_times.append(scan + comm)
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
        replay_ops = common.replay_activations(engine, survivors,
                                               promoted)
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
        engine = self.engine
        lg = engine.local_graphs[node]
        slot = lg.slot_of(gid)
        meta = slot.meta
        slot.role = Role.MASTER
        slot.mirror_id = -1
        # The promoted copy's dynamic state: value is the synced one;
        # activity starts from the master's self-sustained flag and the
        # replay phase adds back neighbor activations.  The surviving
        # replicas' gather flags reflect the old master's last
        # broadcast, which the mirror's own flag also carried.
        old_gather_flag = slot.active
        lg.set_active(slot, slot.mirror_self_active)
        slot.replicas_known_active = old_gather_flag
        position = lg.position_of(gid)
        # Rewrite the metadata for the new location.
        new_positions = {n: p for n, p in meta.replica_positions.items()
                         if n not in failed_set and n != node}
        meta.replica_positions = new_positions
        meta.mirror_nodes = [n for n in meta.mirror_nodes
                             if n not in failed_set and n != node]
        meta.invalidate_replica_cache()
        meta.master_node = node
        meta.master_position = position
        slot.master_node = node

    # ------------------------------------------------------------------
    # edge recovery
    # ------------------------------------------------------------------

    def _relink_promoted_edge_cut(self, promotions: list[tuple[int, int]]
                                  ) -> int:
        """Rebuild promoted masters' local in-edges from full state.

        Sources without a local copy get new replicas whose state is
        fetched from their masters (counted as recovery traffic).
        """
        engine = self.engine
        linked = 0
        for gid, node in promotions:
            lg = engine.local_graphs[node]
            slot = lg.slot_of(gid)
            if slot.full_edges is None:
                raise UnrecoverableFailureError(
                    f"mirror of vertex {gid} lacks the full edge copy")
            position = lg.position_of(gid)
            slot.in_edges = []
            for src_gid, _old_pos, weight in slot.full_edges:
                if src_gid in lg.index_of:
                    src_pos = lg.index_of[src_gid]
                else:
                    src_pos, _ = common.create_replica(engine, src_gid, node)
                lg.slots[src_pos].out_edges.append(position)
                slot.in_edges.append((src_pos, weight))
                linked += 1
            # The full-state copy now describes the new local layout.
            slot.full_edges = [(lg.slots[p].gid, p, w)
                               for p, w in slot.in_edges]
        return linked

    def _reload_vertex_cut_edges(self, failed: tuple[int, ...],
                                 survivors: list[int]
                                 ) -> tuple[float, int]:
        """Each survivor reloads its pre-assigned edge-ckpt files.

        Returns ``(max parallel DFS read time, edges relinked)``.
        """
        engine = self.engine
        assert engine.edge_ckpt is not None
        model = engine.model
        dfs_time = 0.0
        linked = 0
        from repro.ft.edge_ckpt import dedupe_edge_records
        survivor_set = set(survivors)
        # Route every existing file of a crashed owner to a surviving
        # absorber.  Receivers were fixed when the file was written, so
        # after earlier migrations a file's designated receiver may be
        # long dead — the lowest survivor absorbs those (and files whose
        # receiver crashed in this very failure).
        buckets: dict[int, list[EdgeRecord]] = defaultdict(list)
        io_cost: dict[int, tuple[int, int]] = defaultdict(lambda: (0, 0))
        for crashed in failed:
            for receiver in engine.edge_ckpt.receivers(crashed):
                part = engine.edge_ckpt.read_file(crashed, receiver)
                if not part:
                    continue
                absorber = (receiver if receiver in survivor_set
                            else survivors[0])
                buckets[absorber].extend(part)
                nbytes, reads = io_cost[absorber]
                io_cost[absorber] = (
                    nbytes + engine.edge_ckpt.file_nbytes(crashed, receiver),
                    reads + 1)
        # An edge may sit in several files (its receiver changed across
        # recoveries); reconstruct each exactly once, cluster-wide.
        applied: set[tuple[int, int]] = set()
        for absorber in survivors:
            records = [r for r in dedupe_edge_records(buckets[absorber])
                       if (r.src, r.dst) not in applied]
            applied.update((r.src, r.dst) for r in records)
            if records:
                linked += self._apply_edge_records(absorber, records)
            nbytes, reads = io_cost[absorber]
            dfs_time = max(dfs_time, storage_read_time(
                model, nbytes, max(1, reads), in_memory=False))
        return dfs_time, linked

    def _apply_edge_records(self, node: int,
                            records: list[EdgeRecord]) -> int:
        """Attach reloaded edges to local slots, creating missing copies."""
        engine = self.engine
        lg = engine.local_graphs[node]
        linked = 0
        for record in records:
            if record.dst in lg.index_of:
                dst_pos = lg.index_of[record.dst]
            else:
                dst_pos, _ = common.create_replica(engine, record.dst, node)
            if record.src in lg.index_of:
                src_pos = lg.index_of[record.src]
            else:
                src_pos, _ = common.create_replica(engine, record.src, node)
            lg.slots[dst_pos].in_edges.append((src_pos, record.weight))
            lg.slots[src_pos].out_edges.append(dst_pos)
            linked += 1
        if records and engine.edge_ckpt is not None:
            # Future failures of this node must also recover the edges
            # it just absorbed: append them to its own edge-ckpt files,
            # overlapped with resumed execution (bytes counted, no
            # normal-execution time charged).
            by_receiver: dict[int, list[EdgeRecord]] = defaultdict(list)
            for record in records:
                receiver = engine._edge_receiver(record.dst, node)
                by_receiver[receiver].append(record)
            for receiver, recs in sorted(by_receiver.items()):
                for record in recs:
                    engine.edge_ckpt.log_edge_update(node, receiver, record)
        return linked

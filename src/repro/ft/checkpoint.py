"""Imitator-CKPT: the near-optimal checkpoint baseline (Sections 2.2-2.3).

A synchronous distributed checkpoint executed inside the global barrier:

* a **metadata snapshot** at loading captures the immutable topology
  and replica locations (its bytes are charged, its contents rebuilt
  deterministically from the loading inputs at recovery);
* **incremental data snapshots** every ``interval`` iterations store
  only the master values updated since the previous checkpoint, plus a
  compact activity bitmap — no messages are stored (vertex replication
  makes them re-derivable) and edge data is skipped for algorithms that
  never touch it, which is why the paper calls this implementation
  near-optimal (several times faster than Hama's stock checkpoints).

Recovery follows the paper's three steps: every node (the replacement
included) **reloads** snapshots from the DFS, **reconstructs** replica
state by a full master-to-replica resynchronisation, and the engine
then **replays** the lost iterations (:class:`CheckpointRecovery`, the
rung of CKPT mode and of the REPLICATION-mode safety net alike).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.cluster.network import MessageKind
from repro.cluster.storage import PersistentStore
from repro.costmodel import (CostModel, pairwise_comm_time,
                             storage_read_time, storage_write_time)
# The module, not the name: this file is first imported while
# ``construction`` itself is still importing (via ``repro.ft``).
from repro.engine import construction
from repro.engine.local_graph import LocalGraph
from repro.engine.messages import SyncBatch
from repro.engine.vertex_program import VertexProgram
from repro.errors import CheckpointError
from repro.ft.recovery import RecoveryStats
from repro.obs import NULL_TRACER, Tracer
from repro.utils.sizing import BYTES_PER_EDGE, BYTES_PER_VID

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


@dataclass
class CheckpointStats:
    """Cost accounting for checkpoints written so far."""

    checkpoints_written: int = 0
    bytes_written: int = 0
    #: Simulated seconds spent inside barriers writing checkpoints.
    time_spent_s: float = 0.0
    last_checkpoint_iteration: int = -1


@dataclass
class CheckpointRecoveryStats:
    """Reload accounting for one checkpoint recovery."""

    reload_s: float = 0.0
    bytes_read: int = 0
    vertices_restored: int = 0
    #: Iteration the engine must resume from (last snapshot).
    resume_iteration: int = 0


def _data_path(node: int, iteration: int) -> str:
    return f"ckpt/data/node{node}/iter{iteration:06d}"


def _meta_path(node: int) -> str:
    return f"ckpt/meta/node{node}"


def _safety_path(node: int, iteration: int) -> str:
    return f"ckpt/safety/node{node}/iter{iteration:06d}"


def _safety_edges_path(iteration: int) -> str:
    return f"ckpt/safety/edges/iter{iteration:06d}"


class CheckpointManager:
    """Writes and restores Imitator-CKPT snapshots for one job."""

    def __init__(self, store: PersistentStore, model: CostModel,
                 interval: int, in_memory: bool, num_nodes: int,
                 tracer: Tracer | None = None):
        if interval < 1:
            raise CheckpointError("checkpoint interval must be >= 1")
        self.store = store
        self.model = model
        self.interval = interval
        self.in_memory = in_memory
        self.num_nodes = num_nodes
        self.stats = CheckpointStats()
        self.tracer = tracer or NULL_TRACER

    # -- loading phase ------------------------------------------------------

    def write_metadata(self, local_graphs: dict[int, LocalGraph]) -> float:
        """Persist the immutable per-node topology snapshot.

        Returns the simulated time (max across nodes, all writing in
        parallel).
        """
        slowest = 0.0
        for node, lg in local_graphs.items():
            counts = lg.counts()
            nbytes = (counts["total"] * (BYTES_PER_VID + 16)
                      + counts["local_in_edges"] * BYTES_PER_EDGE)
            self.store.write(_meta_path(node), {"counts": counts}, nbytes)
            slowest = max(slowest, storage_write_time(
                self.model, nbytes, 1, self.in_memory))
        return slowest

    # -- per-barrier checkpointing --------------------------------------------

    def due(self, iteration: int) -> bool:
        """Is a checkpoint scheduled at this iteration's barrier?"""
        return (iteration + 1) % self.interval == 0

    def checkpoint(self, iteration: int,
                   local_graphs: dict[int, LocalGraph],
                   program: VertexProgram,
                   alive_nodes: list[int],
                   edge_journal: dict[int, list] | None = None) -> float:
        """Write one incremental snapshot inside the global barrier.

        Returns the simulated time it adds to the barrier (the max over
        nodes: the checkpoint is a collective operation).
        """
        since = self.stats.last_checkpoint_iteration
        slowest = 0.0
        for node in alive_nodes:
            lg = local_graphs[node]
            delta: dict[int, tuple[Any, bool, bool, int]] = {}
            nbytes = 0
            num_masters = 0
            for slot in lg.iter_masters():
                num_masters += 1
                if slot.last_update_iter > since:
                    delta[slot.gid] = (slot.value, slot.active,
                                       slot.last_activates,
                                       slot.last_update_iter)
                    nbytes += (BYTES_PER_VID
                               + program.value_nbytes(slot.value) + 2)
            # Activity bitmap for every master (activation can change
            # without a value update).
            actives = {slot.gid: slot.active for slot in lg.iter_masters()}
            nbytes += (num_masters + 7) // 8
            # Mutated edge state since the last snapshot (rare; the
            # near-optimal baseline "skips edge data" for algorithms
            # that never touch it, Section 2.3).
            edges = list(edge_journal.get(node, ())) \
                if edge_journal else []
            nbytes += 12 * len(edges)
            payload = {"delta": delta, "actives": actives,
                       "edges": edges, "iteration": iteration}
            self.store.write(_data_path(node, iteration), payload, nbytes)
            serialise = (len(delta) * self.model.ckpt_per_record_s
                         * self.model.data_scale)
            slowest = max(slowest, serialise + storage_write_time(
                self.model, nbytes, 1, self.in_memory))
            self.stats.bytes_written += nbytes
        self.stats.checkpoints_written += 1
        self.stats.time_spent_s += slowest
        self.stats.last_checkpoint_iteration = iteration
        self.tracer.record("barrier.checkpoint", slowest, cat="checkpoint",
                           iteration=iteration,
                           ckpt_bytes=self.stats.bytes_written)
        return slowest

    # -- safety-net snapshots (REPLICATION fallback ladder) ----------------

    def safety_checkpoint(self, iteration: int,
                          local_graphs: dict[int, LocalGraph],
                          program: VertexProgram,
                          alive_nodes: list[int],
                          edge_log: dict[tuple[int, int], float] | None = None
                          ) -> float:
        """Write one *full* master snapshot for the fallback ladder.

        Unlike the incremental CKPT-mode snapshots, safety snapshots
        must survive arbitrary recoveries in between: Migration moves
        masters across nodes, so a per-node delta chain cannot be
        replayed after the fact.  Each node therefore writes all of its
        current masters, and recovery merges the latest iteration's
        files from every node into one global gid-keyed map.  Edge
        mutations are stored as a cumulative position-independent
        ``(src_gid, dst_gid) -> weight`` log for the same reason.
        """
        slowest = 0.0
        for node in alive_nodes:
            lg = local_graphs[node]
            masters: dict[int, tuple[Any, bool, bool, int, bool]] = {}
            nbytes = 0
            for slot in lg.iter_masters():
                masters[slot.gid] = (slot.value, slot.active,
                                     slot.last_activates,
                                     slot.last_update_iter,
                                     slot.mirror_self_active)
                nbytes += (BYTES_PER_VID
                           + program.value_nbytes(slot.value) + 3)
            payload = {"masters": masters, "iteration": iteration}
            self.store.write(_safety_path(node, iteration), payload, nbytes)
            serialise = (len(masters) * self.model.ckpt_per_record_s
                         * self.model.data_scale)
            slowest = max(slowest, serialise + storage_write_time(
                self.model, nbytes, 1, self.in_memory))
            self.stats.bytes_written += nbytes
        if edge_log:
            nbytes = 12 * len(edge_log)
            self.store.write(_safety_edges_path(iteration),
                             dict(edge_log), nbytes)
            self.stats.bytes_written += nbytes
            slowest = max(slowest, storage_write_time(
                self.model, nbytes, 1, self.in_memory))
        self.stats.checkpoints_written += 1
        self.stats.time_spent_s += slowest
        self.stats.last_checkpoint_iteration = iteration
        self.tracer.record("barrier.safety_checkpoint", slowest,
                           cat="checkpoint", iteration=iteration,
                           ckpt_bytes=self.stats.bytes_written)
        return slowest

    def recover_safety(self, local_graphs: dict[int, LocalGraph],
                       program: VertexProgram,
                       alive_nodes: list[int],
                       initial_value_of) -> CheckpointRecoveryStats:
        """Restore freshly-rebuilt masters from the latest safety snapshot.

        Expects ``local_graphs`` rebuilt pristine from the loading
        inputs (masters back at their original homes), so the globally
        merged snapshot can be applied wherever each master now lives.
        With no snapshot written yet the run restarts from iteration 0;
        only initial values are applied.
        """
        stats = CheckpointRecoveryStats()
        last = self.stats.last_checkpoint_iteration
        stats.resume_iteration = last + 1
        merged: dict[int, tuple[Any, bool, bool, int, bool]] = {}
        edges: dict[tuple[int, int], float] = {}
        nbytes = 0
        num_reads = 1  # the metadata snapshot
        if last >= 0:
            for node in range(self.num_nodes):
                path = _safety_path(node, last)
                if not self.store.exists(path):
                    continue
                payload = self.store.read(path)
                nbytes += self.store.stat(path).nbytes
                num_reads += 1
                merged.update(payload["masters"])
            epath = _safety_edges_path(last)
            if self.store.exists(epath):
                edges = dict(self.store.read(epath))
                nbytes += self.store.stat(epath).nbytes
                num_reads += 1
        for node in alive_nodes:
            lg = local_graphs[node]
            for slot in lg.iter_masters():
                if slot.gid in merged:
                    (value, active, activates,
                     update_iter, self_active) = merged[slot.gid]
                    slot.value = value
                    slot.last_activates = activates
                    slot.last_update_iter = update_iter
                    slot.mirror_self_active = self_active
                    lg.set_active(slot, active)
                else:
                    slot.value = initial_value_of(slot.gid)
                    slot.last_activates = False
                    slot.last_update_iter = -1
                    lg.set_active(slot,
                                  program.is_initially_active(slot.gid))
                slot.clear_pending()
                stats.vertices_restored += 1
            if edges:
                self._apply_edge_log(lg, edges)
        stats.bytes_read = nbytes
        deserialise = (len(merged) * self.model.ckpt_per_record_s
                       * self.model.data_scale)
        stats.reload_s = deserialise + storage_read_time(
            self.model, nbytes, num_reads, self.in_memory)
        self.tracer.record("safety_checkpoint.reload", stats.reload_s,
                           cat="recovery", bytes_read=stats.bytes_read,
                           vertices=stats.vertices_restored,
                           resume_iteration=stats.resume_iteration)
        return stats

    @staticmethod
    def _apply_edge_log(lg: LocalGraph,
                        edges: dict[tuple[int, int], float]) -> None:
        """Re-apply mutated edge weights to every local copy by gid pair."""
        for slot in lg.iter_slots():
            for i, (src_pos, weight) in enumerate(slot.in_edges):
                src = lg.slots[src_pos]
                if src is None:
                    continue
                key = (src.gid, slot.gid)
                if key in edges and edges[key] != weight:
                    slot.in_edges[i] = (src_pos, edges[key])
            for i, (src_gid, pos, weight) in enumerate(slot.full_edges or ()):
                key = (src_gid, slot.gid)
                if key in edges and edges[key] != weight:
                    slot.full_edges[i] = (src_gid, pos, edges[key])

    # -- recovery ---------------------------------------------------------------

    def recover(self, local_graphs: dict[int, LocalGraph],
                program: VertexProgram,
                alive_nodes: list[int],
                initial_value_of) -> CheckpointRecoveryStats:
        """Restore every node's masters to the last snapshot state.

        ``initial_value_of(gid)`` supplies the deterministic pre-first-
        iteration value for vertices never updated since loading.
        Replica values are *not* stored in snapshots; the reconstruct
        phase resynchronises them from the restored masters (charged as
        communication below, in the engine's recovery bookkeeping).
        """
        stats = CheckpointRecoveryStats()
        last = self.stats.last_checkpoint_iteration
        stats.resume_iteration = last + 1
        for node in alive_nodes:
            lg = local_graphs[node]
            # Merge every incremental snapshot in order.
            merged: dict[int, tuple[Any, bool, bool, int]] = {}
            actives: dict[int, bool] = {}
            edge_updates: list = []
            nbytes = 0
            num_reads = 1  # the metadata snapshot
            if self.store.exists(_meta_path(node)):
                nbytes += self.store.stat(_meta_path(node)).nbytes
                self.store.read(_meta_path(node))
            for iteration in range(0, last + 1):
                path = _data_path(node, iteration)
                if not self.store.exists(path):
                    continue
                payload = self.store.read(path)
                nbytes += self.store.stat(path).nbytes
                num_reads += 1
                merged.update(payload["delta"])
                actives = payload["actives"]
                edge_updates.extend(payload.get("edges", ()))
            for slot in lg.iter_masters():
                if slot.gid in merged:
                    value, active, activates, update_iter = merged[slot.gid]
                    slot.value = value
                    slot.last_activates = activates
                    slot.last_update_iter = update_iter
                else:
                    slot.value = initial_value_of(slot.gid)
                    slot.last_activates = False
                    slot.last_update_iter = -1
                if slot.gid in actives:
                    lg.set_active(slot, actives[slot.gid])
                else:
                    lg.set_active(slot,
                                  program.is_initially_active(slot.gid))
                slot.clear_pending()
                stats.vertices_restored += 1
            # Re-apply mutated edge state in journal order.
            for gid, idx, weight in edge_updates:
                slot = lg.slot_of(gid)
                src_pos, _old = slot.in_edges[idx]
                slot.in_edges[idx] = (src_pos, weight)
            stats.bytes_read += nbytes
            deserialise = (len(merged) * self.model.ckpt_per_record_s
                           * self.model.data_scale)
            stats.reload_s = max(
                stats.reload_s,
                deserialise + storage_read_time(
                    self.model, nbytes, num_reads, self.in_memory))
        self.tracer.record("checkpoint.reload", stats.reload_s,
                           cat="recovery", bytes_read=stats.bytes_read,
                           vertices=stats.vertices_restored,
                           resume_iteration=stats.resume_iteration)
        return stats


class CheckpointRecovery:
    """The checkpoint rung: rewind every node to the last snapshot, of
    either kind a job can keep.

    * **CKPT mode** — reload-everything recovery of the CKPT baseline
      (Section 2.3.2).  Every node rolls back to the last snapshot;
      standby nodes take over the crashed logical ids and rebuild
      their local graph from the (deterministic) metadata snapshot;
      the engine then replays the lost iterations.
    * **Safety net** — the checkpoint rung of the fallback ladder
      (DESIGN.md §9).  Reached when replication is exhausted (some
      vertex lost every copy) or the in-memory rungs failed; rebuilds
      the *whole* cluster state from the latest safety snapshot.
      Earlier recoveries may have migrated masters anywhere, so every
      local graph is rebuilt pristine from the deterministic loading
      inputs and the globally-merged snapshot is applied on top.  With
      no snapshot written yet the run restarts from iteration 0.
    """

    #: This rung's label in ``rungs_attempted`` and the trace.
    rung = "checkpoint"

    def __init__(self, engine: "Engine"):
        self.engine = engine

    def recover(self, failed: tuple[int, ...]) -> RecoveryStats:
        engine = self.engine
        # Precondition: the job keeps snapshots; all else is in storage.
        assert engine.ckpt is not None
        safety = engine._safety_ckpt
        cluster = engine.cluster
        # A checkpoint rewind restores committed snapshots everywhere,
        # including selfish masters a prior ladder pass recomputed.
        engine.selfish_read_fence.clear()
        for node in failed:
            if not safety:
                cluster.replace_node(node)
            elif cluster.node(node).is_crashed:
                # Re-provision each still-crashed id (a partially-run
                # earlier rung may have replaced some): a live spare if
                # one exists, else a rebooted machine — snapshot
                # recovery needs no surviving memory, so a fresh node
                # can always take the slot.
                if cluster.live_standby_nodes():
                    cluster.replace_node(node)
                else:
                    cluster.restart_node(node)
        alive = engine._alive()
        rebuilt_all, _ = construction.build_local_graphs(
            engine.graph, engine.partitioning, engine.plan)
        if safety:
            rebuild = sorted(rebuilt_all)
        elif engine.program.mutates_edges:
            # Edge state diverged from the loading-time topology on
            # every node; rebuild all local graphs to pristine weights
            # and let the snapshot journal re-apply the updates.
            rebuild = sorted(alive)
        else:
            rebuild = sorted(failed)
        for node in rebuild:
            engine.local_graphs[node] = rebuilt_all[node]
            cluster.node(node).local = rebuilt_all[node]
        # Masters are back at their loading-time homes (in CKPT mode
        # they never left).  The safety net, having rebuilt every graph,
        # also restarts from the loading-time values and flags; in CKPT
        # mode the reader and the resync below overwrite everything a
        # rebuilt slot holds.
        engine.master_node_of = [int(n) for n in engine.plan.master_of]
        if safety:
            engine._init_values()
        engine._edge_journal.clear()
        reload = (engine.ckpt.recover_safety if safety
                  else engine.ckpt.recover)
        stats = reload(engine.local_graphs, engine.program, alive,
                       engine.initial_value_of)
        reconstruct_s = _full_resync(engine, alive)
        engine.tracer.record("checkpoint.reconstruct", reconstruct_s,
                             cat="recovery")
        # Write set (DESIGN.md §11): every live node's values and flags.
        for node in alive:
            engine.local_graphs[node].invalidate_soa()
        if engine.edge_ckpt is not None:
            # Re-derive the vertex-cut edge files (REPLICATION mode
            # only, i.e. under the safety net).  The pristine rebuild
            # invalidated every existing file: stray receivers and
            # update records appended by recoveries after the snapshot
            # would otherwise duplicate edges in a later Migration.
            for node in range(cluster.num_workers):
                engine.edge_ckpt.clear_node(node)
            engine._write_edge_ckpt_files()
        lost = engine.iteration - stats.resume_iteration
        engine.iteration = stats.resume_iteration
        return RecoveryStats(
            strategy="safety-checkpoint" if safety else "checkpoint",
            failed_nodes=failed,
            newbie_nodes=failed,
            reload_s=stats.reload_s,
            reconstruct_s=reconstruct_s,
            replay_s=0.0,  # replay happens as re-executed iterations
            vertices_recovered=stats.vertices_restored,
            recovery_bytes=stats.bytes_read,
            replayed_iterations=max(0, lost),
        )


def _full_resync(engine: "Engine", alive: list[int]) -> float:
    """Masters re-push full state to every replica (reconstruction).

    Returns the simulated communication time (max over nodes).
    """
    net = engine.cluster.network
    net.begin_step()
    for node in alive:
        lg = engine.local_graphs[node]
        outbox: dict = {}
        for slot in lg.iter_masters():
            value_nbytes = engine.program.value_nbytes(slot.value)
            for replica_node, _is_mirror in slot.meta.sync_targets():
                if not engine.cluster.node(replica_node).is_alive:
                    continue
                key = (replica_node, MessageKind.RECOVERY)
                batch = outbox.get(key)
                if batch is None:
                    batch = outbox[key] = SyncBatch(full_state=True)
                batch.append(slot.gid, slot.value, value_nbytes,
                             slot.last_activates, slot.active)
        engine._flush_batches(node, outbox)
    slowest = 0.0
    for node in alive:
        slowest = max(slowest, pairwise_comm_time(
            engine.model, net.step_bytes, net.step_msgs, node))
        lg = engine.local_graphs[node]
        for msg in net.deliver(node):
            batch = msg.payload
            for i, gid in enumerate(batch.gids):
                slot = lg.slot_of(gid)
                slot.value = batch.values[i]
                slot.last_activates = batch.activates(i)
                lg.set_active(slot, batch.self_active(i))
                if slot.is_mirror:
                    slot.mirror_self_active = batch.self_active(i)
    for node in alive:
        for slot in engine.local_graphs[node].iter_masters():
            slot.replicas_known_active = slot.active
    return slowest

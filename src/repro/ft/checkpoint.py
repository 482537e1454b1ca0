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

``engine.ckpt`` (:class:`CheckpointManager`) also owns the safety net's
snapshots, the vertex-cut edge-ckpt files and the edge-weight logs, at
three hooks: ``at_load``, ``post_commit`` and ``log_edge``.  Snapshots
are selections of the committed columns and recovery scatters them
back, so no slot is stamped but to re-apply mutated edge weights.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.network import MessageKind
from repro.config import FTMode
from repro.costmodel import (pairwise_comm_time, storage_read_time,
                             storage_write_time)
# The module, not the name: this file is first imported while
# ``construction`` itself is still importing (via ``repro.ft``).
from repro.engine import construction
from repro.engine.local_graph import LocalGraph
from repro.engine.messages import SyncBatch
from repro.ft.edge_ckpt import (EdgeCkptStore, birth_receivers,
                                by_receiver, receivers_of)
from repro.ft.recovery import RecoveryStats
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


#: The committed columns a CKPT-mode delta takes.
_DELTA = ("values", "active", "last_activates", "last_update")
#: The committed columns a safety snapshot takes.
_FULL = _DELTA + ("mirror_self_active",)


def _data_path(node: int, iteration: int) -> str:
    return f"ckpt/data/node{node}/iter{iteration:06d}"


def _meta_path(node: int) -> str:
    return f"ckpt/meta/node{node}"


def _safety_path(node: int, iteration: int) -> str:
    return f"ckpt/safety/node{node}/iter{iteration:06d}"


def _safety_edges_path(iteration: int) -> str:
    return f"ckpt/safety/edges/iter{iteration:06d}"


class CheckpointManager:
    """Snapshots, edge-ckpt files and edge-weight logs for one job."""

    def __init__(self, engine: "Engine"):
        ft = engine.job.ft
        self.engine = engine
        self.store = engine.cluster.store
        self.model = engine.model
        self.in_memory = ft.checkpoint_in_memory
        self.num_nodes = engine.cluster.num_workers
        replication = ft.mode is FTMode.REPLICATION
        #: REPLICATION composed with low-frequency full snapshots — the
        #: checkpoint rung of the fallback ladder (DESIGN.md §9).
        self.safety = replication and ft.safety_checkpoint_interval > 0
        #: Barriers per snapshot; 0 when the job keeps none.
        self.interval = (ft.safety_checkpoint_interval if self.safety
                         else ft.checkpoint_interval
                         if ft.mode is FTMode.CHECKPOINT else 0)
        self.stats = CheckpointStats()
        #: The vertex-cut edge-ckpt files (Section 4.3).
        self.edges = (EdgeCkptStore(self.store)
                      if replication and not engine.is_edge_cut else None)
        #: CKPT mode: edge mutations since the last snapshot, per node,
        #: as ``(gid, in-edge index, weight)`` (masters never move).
        self.journal: dict[int, list] = defaultdict(list)
        #: Safety net: cumulative position-independent edge-weight log,
        #: ``(src gid, dst gid) -> latest weight``; survives arbitrary
        #: recoveries between snapshots.
        self.safety_log: dict[tuple[int, int], float] = {}

    # -- the engine's hooks -------------------------------------------------

    def at_load(self) -> None:
        """The loading phase: the metadata snapshot of a job that keeps
        snapshots — the immutable per-node topology, sized by each
        image's copy and local in-edge counts — and the edge-ckpt files."""
        for node, lg in (self.engine.local_graphs.items()
                         if self.interval else ()):
            topo = lg.topology()
            copies, edges = int(topo.occupied.sum()), topo.in_src.size
            self.store.write(_meta_path(node), {
                "copies": copies, "local_in_edges": edges},
                copies * (BYTES_PER_VID + 16) + edges * BYTES_PER_EDGE)
        if self.edges is not None:
            self.write_edge_files()

    def post_commit(self, alive_nodes: list[int]) -> float:
        """Write the snapshot due at this barrier, if any (Section 2.2);
        returns the simulated time it adds to the barrier (the max over
        nodes: the checkpoint is a collective operation).

        A CKPT-mode snapshot is incremental: per node, the masters
        updated since the last one, every master's activity bitmap
        (activation can change without a value update) and the edge
        journal.  A safety snapshot holds *every* master: Migration
        moves masters, so recovery merges every node's latest file by
        gid (and edge mutations by gid pair, :attr:`safety_log`)."""
        iteration = self.engine.iteration
        if not self.interval or (iteration + 1) % self.interval:
            return 0.0
        since = self.stats.last_checkpoint_iteration
        slowest = 0.0
        for node in alive_nodes:
            lg = self.engine.local_graphs[node]
            masters = lg.topology().is_master
            if self.safety:
                table = _select(lg, masters, _FULL)
                path, payload = _safety_path(node, iteration), {
                    "masters": table}
                nbytes = 3 * table["gids"].size
            else:
                table = _select(lg, masters & (lg.last_update > since),
                                _DELTA)
                # Mutated edge state since the last snapshot (rare; the
                # near-optimal baseline "skips edge data" for algorithms
                # that never touch it, Section 2.3).
                edges = self.journal.pop(node, [])
                path, payload = _data_path(node, iteration), {
                    "delta": table, "edges": edges,
                    "actives": _select(lg, masters, ("active",))}
                nbytes = (2 * table["gids"].size + 12 * len(edges)
                          + (int(masters.sum()) + 7) // 8)
            nbytes += table["gids"].size * BYTES_PER_VID + int(
                self.engine.program.value_sizes(table["values"]).sum())
            payload["iteration"] = iteration
            self.store.write(path, payload, nbytes)
            serialise = (table["gids"].size * self.model.ckpt_per_record_s
                         * self.model.data_scale)
            slowest = max(slowest, serialise + storage_write_time(
                self.model, nbytes, 1, self.in_memory))
            self.stats.bytes_written += nbytes
        self.journal.clear()
        if self.safety_log:
            nbytes = 12 * len(self.safety_log)
            self.store.write(_safety_edges_path(iteration),
                             dict(self.safety_log), nbytes)
            self.stats.bytes_written += nbytes
            slowest = max(slowest, storage_write_time(
                self.model, nbytes, 1, self.in_memory))
        self.stats.checkpoints_written += 1
        self.stats.time_spent_s += slowest
        self.stats.last_checkpoint_iteration = iteration
        self.engine.tracer.record(
            "barrier.safety_checkpoint" if self.safety
            else "barrier.checkpoint", slowest, cat="checkpoint",
            iteration=iteration, ckpt_bytes=self.stats.bytes_written)
        return slowest

    def log_edge(self, node: int, src: int, dst: int, index: int,
                 weight: float) -> None:
        """File one committed weight change of in-edge ``index`` of
        ``dst`` on ``node``: in the edge-ckpt log (bytes counted, time
        overlapped with execution), the safety log or the CKPT journal."""
        if self.edges is not None:
            edge = (np.array([src]), np.array([dst]), np.array([weight]))
            (to,) = receivers_of(self.engine, edge[1], node).tolist()
            self.edges.log(node, to, edge)
        if self.safety:
            self.safety_log[(src, dst)] = weight
        elif self.interval:
            self.journal[node].append((dst, index, weight))

    # -- edge-ckpt files ------------------------------------------------------

    def write_edge_files(self) -> None:
        """(Re)write every node's edge-ckpt files from its image, one
        file per receiver (Section 4.3), every existing file dropped
        first."""
        for node in range(self.num_nodes):
            self.edges.clear_node(node)
        for node, lg in self.engine.local_graphs.items():
            topo = lg.topology()
            edges = (topo.gids[topo.in_src], topo.gids[topo.in_dst],
                     topo.in_w)
            self.edges.write_node_edges(node, by_receiver(
                birth_receivers(node, lg, self.num_nodes), edges))

    # -- recovery ---------------------------------------------------------------

    def recover_safety(self, alive_nodes: list[int]
                       ) -> CheckpointRecoveryStats:
        """Restore freshly-rebuilt masters from the latest safety snapshot.

        Expects the local graphs rebuilt pristine from the loading
        inputs (masters back at their original homes), so the globally
        merged snapshot can be applied wherever each master now lives.
        With no snapshot written yet the run restarts from iteration 0;
        only initial values are applied.
        """
        stats = CheckpointRecoveryStats()
        last = self.stats.last_checkpoint_iteration
        stats.resume_iteration = last + 1
        snapshots = range(self.num_nodes) if last >= 0 else ()
        payloads, nbytes = self._read(
            [_safety_path(node, last) for node in snapshots])
        logs, log_bytes = self._read(
            [_safety_edges_path(last)] if last >= 0 else [])
        merged = _merge([payload["masters"] for payload in payloads])
        for node in alive_nodes:
            lg = self.engine.local_graphs[node]
            stats.vertices_restored += self._restore(lg, merged, merged)
            if logs:
                self._apply_edge_log(lg, logs[0])
        stats.bytes_read = nbytes + log_bytes
        deserialise = (merged["gids"].size * self.model.ckpt_per_record_s
                       * self.model.data_scale)
        # One read per file, plus the metadata snapshot.
        stats.reload_s = deserialise + storage_read_time(
            self.model, stats.bytes_read, 1 + len(payloads) + len(logs),
            self.in_memory)
        self.engine.tracer.record(
            "safety_checkpoint.reload", stats.reload_s, cat="recovery",
            bytes_read=stats.bytes_read, vertices=stats.vertices_restored,
            resume_iteration=stats.resume_iteration)
        return stats

    @staticmethod
    def _apply_edge_log(lg: LocalGraph,
                        edges: dict[tuple[int, int], float]) -> None:
        """Re-apply mutated edge weights to every local copy by gid pair."""
        lg.invalidate_soa()  # the image holds the weights
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

    def recover(self, alive_nodes: list[int]) -> CheckpointRecoveryStats:
        """Restore every node's masters to the last snapshot state.

        Each node merges its own incremental snapshots in order; masters
        never updated since loading take their deterministic
        pre-first-iteration state.  Replica values are *not* stored in
        snapshots; the reconstruct phase resynchronises them from the
        restored masters (charged as communication, in
        :class:`CheckpointRecovery`).
        """
        stats = CheckpointRecoveryStats()
        last = self.stats.last_checkpoint_iteration
        stats.resume_iteration = last + 1
        for node in alive_nodes:
            lg = self.engine.local_graphs[node]
            _, meta_bytes = self._read([_meta_path(node)])
            payloads, nbytes = self._read(
                [_data_path(node, iteration) for iteration in range(last + 1)])
            merged = _merge([payload["delta"] for payload in payloads])
            stats.vertices_restored += self._restore(lg, merged, _merge(
                [payload["actives"] for payload in payloads]))
            # Re-apply mutated edge state in journal order.
            journal = [edge for payload in payloads
                       for edge in payload["edges"]]
            if journal:
                lg.invalidate_soa()  # the image holds the weights
            for gid, idx, weight in journal:
                slot = lg.slot_of(gid)
                src_pos, _old = slot.in_edges[idx]
                slot.in_edges[idx] = (src_pos, weight)
            nbytes += meta_bytes
            stats.bytes_read += nbytes
            deserialise = (merged["gids"].size * self.model.ckpt_per_record_s
                           * self.model.data_scale)
            stats.reload_s = max(
                stats.reload_s,
                deserialise + storage_read_time(
                    self.model, nbytes, 1 + len(payloads), self.in_memory))
        self.engine.tracer.record(
            "checkpoint.reload", stats.reload_s, cat="recovery",
            bytes_read=stats.bytes_read, vertices=stats.vertices_restored,
            resume_iteration=stats.resume_iteration)
        return stats

    def _read(self, paths: list[str]) -> tuple[list, int]:
        """The payloads of those of ``paths`` that exist, and their bytes."""
        payloads, nbytes = [], 0
        for path in paths:
            if self.store.exists(path):
                payloads.append(self.store.read(path))
                nbytes += self.store.stat(path).nbytes
        return payloads, nbytes

    def _restore(self, lg: LocalGraph, state: dict, flags: dict) -> int:
        """Scatter merged snapshot tables at ``lg``'s masters: values,
        update stamps (and, from a safety snapshot, mirror self-activity)
        from ``state``, activity from ``flags``; a master neither holds
        takes its initial state.  Returns the masters restored."""
        engine = self.engine
        topo = lg.topology()
        pos = np.flatnonzero(topo.is_master)
        gids = topo.gids[pos]
        hit = np.isin(gids, state["gids"])
        at = np.searchsorted(state["gids"], gids)
        # Python objects, as a slot would read them back.
        values = _take(state, "values", hit, at, None).tolist()
        missed = np.flatnonzero(~hit)
        for i, value in zip(missed.tolist(), engine.program.initial_values(
                gids[missed], engine._ctx()).tolist()):
            values[i] = value
        lg.store(pos, values=values,
                 last_activates=_take(state, "last_activates", hit, at,
                                      False),
                 last_update=_take(state, "last_update", hit, at, -1))
        if "mirror_self_active" in state:
            lg.store(pos[hit], mirror_self_active=state[
                "mirror_self_active"][at[hit]])
        known = np.isin(gids, flags["gids"])
        where = np.searchsorted(flags["gids"], gids)
        active = _take(flags, "active", known, where, False)
        active[~known] = engine.program.initially_active(gids[~known])
        lg.store(pos, active=active)
        return pos.size


def _select(lg: LocalGraph, mask: np.ndarray, columns) -> dict:
    """A snapshot table: the gids of ``lg``'s copies under ``mask`` and
    the takes of its committed ``columns`` there."""
    pos = np.flatnonzero(mask)
    return {"gids": lg.topology().gids[pos],
            **{name: getattr(lg, name)[pos] for name in columns}}


def _merge(tables: list[dict]) -> dict:
    """One table from snapshot tables in write order, sorted by gid:
    each gid's row from the last table holding it."""
    if not tables:
        return {"gids": np.zeros(0, dtype=np.int64)}
    gids = np.concatenate([table["gids"] for table in tables])
    _, from_end = np.unique(gids[::-1], return_index=True)
    last = gids.size - 1 - from_end
    return {name: np.concatenate([table[name] for table in tables])[last]
            for name in tables[0]}


def _take(table: dict, name: str, hit: np.ndarray, at: np.ndarray, fill):
    """Column ``name`` of ``table`` at ``at`` where ``hit``, else ``fill``."""
    column = np.full(hit.size, fill)
    if hit.any():
        column[hit] = table[name][at[hit]]
    return column


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
        ckpt = engine.ckpt
        # Precondition: the job keeps snapshots; all else is in storage.
        assert ckpt.interval
        safety = ckpt.safety
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
        # rebuilt copy holds.
        engine.master_node_of = engine.plan.master_of.astype(np.int64)
        if safety:
            engine._init_values()
        ckpt.journal.clear()
        stats = (ckpt.recover_safety if safety else ckpt.recover)(alive)
        reconstruct_s = _full_resync(engine, alive)
        engine.tracer.record("checkpoint.reconstruct", reconstruct_s,
                             cat="recovery")
        # Write set (DESIGN.md §11): values and flags are column writes,
        # a rebuilt graph is born with its own image, and the readers
        # invalidate the graphs whose edge weights they re-apply.
        if ckpt.edges is not None:
            # Re-derive the vertex-cut edge files (REPLICATION mode
            # only, i.e. under the safety net).  The pristine rebuild
            # invalidated every existing file: stray receivers and
            # update records appended by recoveries after the snapshot
            # would otherwise duplicate edges in a later Migration.
            ckpt.write_edge_files()
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
    """Masters re-push full state to every replica (reconstruction):
    per node one ``RECOVERY`` batch per live copy node, in the order a
    walk over the masters meets them, records in position order, each
    applied with one positional scatter.  Returns the simulated
    communication time (max over nodes)."""
    net = engine.cluster.network
    net.begin_step()
    for node in alive:
        lg = engine.local_graphs[node]
        topo = lg.topology()
        outbox: dict = {}
        for dst in dict.fromkeys(dst for dst, _mirror in topo.sync_plan):
            if not engine.cluster.node(dst).is_alive:
                continue
            pos, peer, _mirror = topo.copies_on(dst)
            order = np.argsort(pos, kind="stable")
            pos, peer = pos[order], peer[order]
            values = lg.values[pos]
            sizes = engine.program.value_sizes(values) + (BYTES_PER_VID + 2)
            flags = lg.last_activates[pos] + 2 * lg.active[pos]
            outbox[(dst, MessageKind.RECOVERY)] = SyncBatch.from_columns(
                topo.gids[pos], peer, values, flags, sizes, full_state=True)
        engine._flush_batches(node, outbox)
    slowest = 0.0
    for node in alive:
        slowest = max(slowest, pairwise_comm_time(
            engine.model, net.step_bytes, net.step_msgs, node))
        lg = engine.local_graphs[node]
        is_mirror = lg.topology().is_mirror
        for msg in net.deliver(node):
            pos, flags = msg.payload.positions, msg.payload.flags
            self_active = (flags & SyncBatch.FLAG_SELF_ACTIVE) != 0
            lg.store(pos, values=msg.payload.values.tolist(),
                     last_activates=(flags & SyncBatch.FLAG_ACTIVATES) != 0,
                     active=self_active)
            mirrors = is_mirror[pos]
            lg.store(pos[mirrors], mirror_self_active=self_active[mirrors])
    for node in alive:
        lg = engine.local_graphs[node]
        masters = lg.topology().is_master
        lg.replicas_known_active[masters] = lg.active[masters]
    return slowest

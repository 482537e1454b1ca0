"""Backend-agnostic per-node superstep protocol (DESIGN.md §12).

Three layers, the same on both execution backends:

* :class:`NodeProtocol` — the scalar compute/sync/commit code of one
  partition, written against plain data structures: a
  :class:`LocalGraph`, an ``outbox`` dict keyed ``(dst_node, kind)``
  accumulating columnar batches, and a ``dirty`` map of staged slots.
* :class:`ScalarNodeState` — the per-node object binding the protocol
  to one partition's state behind the *round interface* every backend
  drives: ``broadcast_build`` / ``broadcast_apply``, ``compute``,
  ``gather``, ``intake``, ``fold_apply``, ``stage``, ``stage1``,
  ``activate``, ``finalize``, ``abort``, and the committed reads
  ``read``, ``topk``, ``committed_state``.
* one driver per backend — ``Engine`` (the deterministic in-process
  simulator) and the forked workers of :mod:`repro.exec.mp` — calling
  that interface and nothing else.

Programs with an array kernel run the array image of the first two
layers (:class:`~repro.engine.vectorized.ArrayNodeProtocol` and its
``_NodeState``) under the same drivers, held bit-equal to this code by
the differential suites.  Equality of committed values and
logical-message counts across backends is therefore structural: both
run the same per-node code over the same per-node state in the same
deterministic order; only the transport underneath differs.

Neither layer here touches a network, cluster, tracer, or clock:
everything scheduling-related (which nodes run, when batches flush,
where chaos hooks fire, how time is charged) stays with the backend.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.cluster.network import MessageKind
from repro.engine.combine import combiner_of, fold_raw_batch
from repro.engine.messages import (ActivateBatch, ActiveBroadcastBatch,
                                   GatherBatch, RawGatherBatch, SyncBatch)
from repro.utils.sizing import BYTES_PER_VID


class NodeProtocol:
    """The scalar superstep protocol of one partition (both modes).

    Stateless across supersteps apart from four policy knobs; one
    instance can serve every partition of a backend.  ``selfish_opt``
    is re-evaluated by the engine each superstep (it depends on the
    program and FT config, both fixed per job, but mirroring the
    engine's per-superstep read keeps the delegation exact).

    ``combining`` selects the vertex-cut gather wire format for
    programs that declare a :attr:`VertexProgram.combiner` (DESIGN.md
    §15): on (default), every remote partial is the sender-side fold of
    its contributions — one combined record per ``(dst_node, gid)``,
    annotated with the pre-combine contribution count; off, the raw
    per-edge contributions ship in a :class:`RawGatherBatch` and the
    master's node folds each group on receipt.  Both produce
    bit-identical values and identical logical traffic.  Programs with
    no combiner (or edge-mutating gathers, whose fold interleaves
    ``update_edge`` calls) always use the combined format via the plain
    ``gather`` loop.
    """

    def __init__(self, program, is_edge_cut: bool,
                 sync_elision: bool = True,
                 selfish_opt: bool = False,
                 combining: bool = True):
        self.program = program
        self.is_edge_cut = is_edge_cut
        self.sync_elision = sync_elision
        self.selfish_opt = selfish_opt
        self.combining = combining
        self.combiner = (None if program.mutates_edges
                         else combiner_of(program))
        from repro.engine.combine import scalar_op
        self._op = scalar_op(self.combiner) if self.combiner else None

    def new_state(self, lg) -> "ScalarNodeState":
        """``lg``'s per-node round object under this protocol."""
        return ScalarNodeState(self, lg)

    # -- gather + apply -------------------------------------------------

    def gather_edges(self, lg, slot, ctx,
                     mutation_log: dict | None = None) -> tuple[Any, tuple]:
        """Fold a slot's local in-edges; collect staged edge mutations.

        ``mutation_log`` (node -> [(slot, [(idx, new_w)])]) receives the
        staged updates for edge-mutating programs; the backend commits
        them at its barrier.
        """
        program = self.program
        acc = program.gather_init()
        if not program.mutates_edges:
            for src_pos, weight in slot.in_edges:
                acc = program.gather(acc, lg.view(src_pos), weight,
                                     slot.gid)
            return acc, ()
        updates = []
        for idx, (src_pos, weight) in enumerate(slot.in_edges):
            view = lg.view(src_pos)
            acc = program.gather(acc, view, weight, slot.gid)
            new_weight = program.update_edge(view, slot.gid, weight, ctx)
            if new_weight is not None and new_weight != weight:
                updates.append((idx, new_weight))
        if updates and mutation_log is not None:
            mutation_log[lg.node_id].append((slot, updates))
        return acc, tuple(updates)

    def compute_master(self, lg, slot, acc, ctx, outbox: dict,
                       dirty: dict, edge_updates: tuple = ()) -> int:
        """Apply + stage + sync one master's update; returns the number
        of sync records elided."""
        program = self.program
        new_value = program.apply(slot.gid, slot.value, acc, ctx)
        activates = program.activates_neighbors(
            slot.gid, slot.value, new_value, ctx)
        self_active = program.stays_active(
            slot.gid, slot.value, new_value, ctx)
        slot.pending_value = new_value
        slot.has_pending = True
        slot.pending_activates = activates
        slot.pending_active = self_active
        dirty[slot.gid] = slot
        return self.build_syncs(slot, new_value, activates, self_active,
                                outbox, edge_updates)

    def build_syncs(self, slot, new_value, activates: bool,
                    self_active: bool, outbox: dict,
                    edge_updates: tuple = ()) -> int:
        """Master -> replica/mirror synchronisation records.

        Records accumulate into the sending node's per-(dst, kind)
        columnar outbox, flushed once per node per superstep by the
        backend.  A master whose committed update is a non-activating
        no-op elides its records: replicas already hold the value, and
        because the previous commit also did not activate
        (``last_activates`` is clear) recovery replay has nothing to
        lose from the skipped ``last_update_iter`` stamp (DESIGN.md
        §10).  Returns the number of records elided.
        """
        if slot.selfish and self.selfish_opt:
            # Selfish optimisation (Section 4.4): no consumers, no sync;
            # recovery recomputes the dynamic state.
            return 0
        elided = 0
        mirror_updates = edge_updates if self.is_edge_cut else ()
        if self.sync_elision:
            noop = (not activates and not slot.last_activates
                    and new_value == slot.value)
            plain_elide = noop
            mirror_elide = (noop and not mirror_updates
                            and self_active == slot.mirror_self_active)
        else:
            plain_elide = mirror_elide = False
        value_nbytes = self.program.value_nbytes(new_value)
        where = slot.meta.replica_positions
        for replica_node, is_mirror in slot.meta.sync_targets():
            if is_mirror:
                if mirror_elide:
                    elided += 1
                    continue
                key = (replica_node, MessageKind.MIRROR_SYNC)
                batch = outbox.get(key)
                if batch is None:
                    batch = outbox[key] = SyncBatch(full_state=True)
                batch.append(slot.gid, where[replica_node], new_value,
                             value_nbytes, activates, self_active,
                             mirror_updates)
            else:
                if plain_elide:
                    elided += 1
                    continue
                key = (replica_node, MessageKind.SYNC)
                batch = outbox.get(key)
                if batch is None:
                    batch = outbox[key] = SyncBatch()
                batch.append(slot.gid, where[replica_node], new_value,
                             value_nbytes, activates)
        return elided

    # -- per-node compute phases ----------------------------------------

    def edge_cut_compute_node(self, lg, ctx, outbox: dict, dirty: dict,
                              mutation_log: dict | None = None
                              ) -> tuple[int, int, int]:
        """One node's edge-cut superstep: gather + apply + stage syncs.

        Returns ``(edges_folded, vertices_computed, syncs_elided)``.
        """
        program = self.program
        edges = 0
        vertices = 0
        elided = 0
        for gid in lg.active_masters_snapshot():
            slot = lg.slot_of(gid)
            if not program.participates(gid, ctx):
                continue
            acc, updates = self.gather_edges(lg, slot, ctx, mutation_log)
            edges += len(slot.in_edges)
            vertices += 1
            elided += self.compute_master(lg, slot, acc, ctx, outbox,
                                          dirty, updates)
        return edges, vertices, elided

    def vertex_gather(self, lg, ctx, outbox: dict, partials_out: list,
                      mutation_log: dict | None = None) -> int:
        """One node's vertex-cut gather phase (phase 1).

        Local partials append to ``partials_out`` as ``(gid, acc)``;
        remote partials accumulate into per-master ``GatherBatch``
        outbox entries.  Returns the number of edges folded.
        """
        program = self.program
        combiner = self.combiner
        node = lg.node_id
        edges = 0
        for gid in (lg.active_masters_snapshot()
                    + lg.active_others_snapshot()):
            slot = lg.slot_of(gid)
            if not slot.in_edges:
                continue
            if not program.participates(gid, ctx):
                continue
            if combiner is None:
                acc, _updates = self.gather_edges(lg, slot, ctx,
                                                  mutation_log)
                contribs = None
            else:
                # Contribution-decomposed fold: same arithmetic and
                # order as gather_edges (the combiner declaration
                # guarantees it), but the per-edge terms stay visible
                # for the combining layer's accounting / raw shipping.
                contribs = []
                for src_pos, weight in slot.in_edges:
                    c = program.contribution(lg.view(src_pos), weight,
                                             slot.gid)
                    if c is not None:
                        contribs.append(c)
                op = self._op
                acc = program.gather_init()
                for c in contribs:
                    acc = c if acc is None else op(acc, c)
            edges += len(slot.in_edges)
            master_node = node if slot.is_master else slot.master_node
            if master_node == node:
                partials_out.append((gid, acc))
            elif combiner is not None and not self.combining:
                key = (master_node, MessageKind.GATHER)
                batch = outbox.get(key)
                if not isinstance(batch, RawGatherBatch):
                    batch = outbox[key] = RawGatherBatch()
                logical = BYTES_PER_VID + program.acc_nbytes(acc)
                physical = (BYTES_PER_VID
                            + sum(program.acc_nbytes(c) for c in contribs)
                            if contribs else logical)
                batch.append(gid, contribs, logical, physical)
            else:
                key = (master_node, MessageKind.GATHER)
                batch = outbox.get(key)
                if batch is None:
                    batch = outbox[key] = GatherBatch()
                folded = max(1, len(contribs)) if contribs is not None \
                    else None
                batch.append(gid, acc, program.acc_nbytes(acc), folded)
        return edges

    def fold_raw_gather(self, batch: RawGatherBatch) -> list:
        """Receiver-side fold: one combined accumulator per record."""
        return fold_raw_batch(batch, self.program)

    def master_fold_apply(self, lg, partials: dict, ctx, outbox: dict,
                          dirty: dict) -> tuple[int, int]:
        """One node's vertex-cut apply phase (phase 2).

        ``partials`` maps gid -> [(sender_node, acc)]; folds run in
        sender-node order for determinism.  Returns
        ``(vertices_computed, syncs_elided)``.
        """
        program = self.program
        vertices = 0
        elided = 0
        for gid in lg.active_masters_snapshot():
            slot = lg.slot_of(gid)
            if not program.participates(gid, ctx):
                continue
            acc = program.gather_init()
            for _, part in sorted(partials.get(gid, ()),
                                  key=lambda item: item[0]):
                acc = program.gather_sum(acc, part)
            vertices += 1
            elided += self.compute_master(lg, slot, acc, ctx, outbox,
                                          dirty)
        return vertices, elided

    # -- vertex-cut activity broadcast (phase 0) ------------------------

    # Phase 0 needs no knob; the array per-node object runs the same walk
    # on its columns (``_NodeState.broadcast_build``).

    @staticmethod
    def broadcast_build(lg, pending) -> dict:
        """Masters whose activity changed since replicas last heard
        build the flag-broadcast outbox; clears ``replicas_known_active``
        drift for the gids shipped."""
        outbox: dict = {}
        for gid in sorted(pending):
            if gid not in lg.index_of:
                continue
            slot = lg.slot_of(gid)
            if not slot.is_master \
                    or slot.replicas_known_active == slot.active:
                continue
            for replica_node, _is_mirror in slot.meta.sync_targets():
                key = (replica_node, MessageKind.CONTROL)
                batch = outbox.get(key)
                if batch is None:
                    batch = outbox[key] = ActiveBroadcastBatch()
                batch.append(gid, slot.active)
            slot.replicas_known_active = slot.active
        return outbox

    @staticmethod
    def broadcast_apply(lg, batch) -> None:
        for gid, active in zip(batch.gids, batch.actives):
            lg.set_active(lg.slot_of(gid), active)

    # -- sync application -----------------------------------------------

    def apply_sync_batch(self, lg, batch, dirty: dict) -> None:
        """Stage every record of one received sync batch."""
        full = batch.full_state
        for i, gid in enumerate(batch.gids):
            slot = lg.slot_of(gid)
            slot.pending_value = batch.values[i]
            slot.has_pending = True
            slot.pending_activates = batch.activates(i)
            if full:
                slot.pending_active = batch.self_active(i)
                updates = batch.edge_updates_of(i)
                if updates and slot.full_edges is not None:
                    for idx, weight in updates:
                        gid0, pos, _old = slot.full_edges[idx]
                        slot.full_edges[idx] = (gid0, pos, weight)
            dirty[gid] = slot

    # -- barrier commit --------------------------------------------------

    def commit_stage1(self, lg, dirty: dict,
                      iteration: int) -> list[tuple[int, int]]:
        """Scatter local activations for the staged updates.

        Returns the remote activation signals this node must send, as
        ``(dst_master_node, gid)`` pairs (possibly with duplicates;
        the backend dedups globally, matching the engine's signal set).

        Committed state stays untouched until :meth:`finalize_commit` —
        everything staged here lives in pending fields and
        ``next_active`` flags, all reverted by ``clear_pending``.  That
        makes the whole commit exchange abortable up to the finalize
        round: a backend that loses a worker mid-commit can abort the
        survivors and redo the iteration bit-identically.
        """
        signals: list[tuple[int, int]] = []
        slots = lg.slots.materialize()
        # Snapshot: activation marking adds targets to the dirty map.
        for slot in list(dirty.values()):
            if not slot.has_pending:
                continue
            if slot.pending_activates:
                for dst_pos in slot.out_edges:
                    target = slots[dst_pos]
                    if target is None:
                        continue
                    if target.is_master:
                        target.next_active = True
                        dirty[target.gid] = target
                    else:
                        signals.append((target.master_node, target.gid))
        return signals

    def apply_activations(self, lg, gids, dirty: dict) -> None:
        """Mark remote activation signals received for local masters."""
        for gid in gids:
            slot = lg.slot_of(gid)
            slot.next_active = True
            dirty[gid] = slot

    def finalize_commit(self, lg, dirty: dict,
                        iteration: int) -> list[int]:
        """Commit pending values and finalise active flags — the point
        of no return of the superstep.

        Returns the master gids whose activity now differs from what
        their replicas believe (vertex-cut broadcast backlog; always
        empty under edge-cut).
        """
        stale: list[int] = []
        for slot in dirty.values():
            if slot.has_pending:
                slot.value = slot.pending_value
                slot.last_activates = slot.pending_activates
                slot.last_update_iter = iteration
            if slot.is_master:
                self_part = slot.has_pending and slot.pending_active
                if slot.has_pending:
                    # Track the self-active flag the mirrors just
                    # received, so recovery can rebuild them.
                    slot.mirror_self_active = slot.pending_active
                lg.set_active(slot, bool(self_part or slot.next_active))
                if (not self.is_edge_cut
                        and slot.active != slot.replicas_known_active):
                    stale.append(slot.gid)
            elif slot.is_mirror and slot.has_pending:
                # Mirrors track the master's self-sustained activity;
                # remote activations are replayed at recovery.
                slot.mirror_self_active = slot.pending_active
            slot.clear_pending()
        return stale


class ScalarNodeState:
    """One partition's superstep state bound to its :class:`NodeProtocol`
    — the scalar per-node object behind the round interface (module
    docstring).  Engine-free, so forked workers run it as is."""

    def __init__(self, proto: NodeProtocol, lg):
        self.proto = proto
        self.lg = lg
        # The scalar loop works on slots throughout: stamp them all in
        # one batched pass, not one at a time as it first indexes each.
        lg.slots.materialize()
        #: gid -> slot touched this superstep (committed by
        #: :meth:`finalize` or rolled back by :meth:`abort`).
        self.dirty: dict[int, Any] = {}
        #: Vertex-cut: gid -> [(sender_node, acc)] gathered this
        #: superstep for the local masters.
        self.partials: dict[int, list[tuple[int, Any]]] = {}
        #: Staged edge mutations, [(slot, [(idx, new_w)])]: the backend
        #: commits them at its barrier, before :meth:`finalize`.
        self.edge_updates: list = []
        self._mutation_log = ({lg.node_id: self.edge_updates}
                              if proto.program.mutates_edges else None)

    # -- compute (vertex-cut: phase 0 broadcast, gather, fold + apply) --

    def broadcast_build(self, pending) -> dict:
        return self.proto.broadcast_build(self.lg, pending)

    def broadcast_apply(self, batch) -> None:
        self.proto.broadcast_apply(self.lg, batch)

    def compute(self, ctx, outbox: dict) -> tuple[int, int, int]:
        """Edge-cut superstep; ``(edges, vertices, syncs_elided)``."""
        return self.proto.edge_cut_compute_node(
            self.lg, ctx, outbox, self.dirty, self._mutation_log)

    def gather(self, ctx, outbox: dict) -> int:
        """Vertex-cut phase 1; returns the edges folded."""
        local: list[tuple[int, Any]] = []
        edges = self.proto.vertex_gather(self.lg, ctx, outbox, local,
                                         self._mutation_log)
        for gid, acc in local:
            self.partials.setdefault(gid, []).append(
                (self.lg.node_id, acc))
        return edges

    def intake(self, src: int, batch) -> None:
        """Stage one received gather batch for the master fold."""
        if isinstance(batch, RawGatherBatch):
            # Combining off: fold each record's raw contribution group
            # on receipt (DESIGN.md §15) — the partial the sender would
            # have shipped combined.
            accs = self.proto.fold_raw_gather(batch)
        else:
            accs = batch.accs
        for gid, acc in zip(batch.gids, accs):
            self.partials.setdefault(gid, []).append((src, acc))

    def fold_apply(self, ctx, outbox: dict) -> tuple[int, int]:
        """Vertex-cut phase 2; ``(vertices, syncs_elided)``."""
        return self.proto.master_fold_apply(self.lg, self.partials, ctx,
                                            outbox, self.dirty)

    # -- barrier commit --------------------------------------------------

    def stage(self, batch) -> None:
        """Stage one received sync batch."""
        self.proto.apply_sync_batch(self.lg, batch, self.dirty)

    def stage1(self, iteration: int) -> dict:
        """Abortable commit stage 1: local activation scatter; returns
        the remote signals as one :class:`ActivateBatch` per master
        node, gids unique and sorted."""
        outbox: dict = {}
        for dst, gid in sorted(set(self.proto.commit_stage1(
                self.lg, self.dirty, iteration))):
            outbox.setdefault((dst, MessageKind.ACTIVATE),
                              ActivateBatch()).append(gid)
        return outbox

    def activate(self, gids) -> None:
        self.proto.apply_activations(self.lg, gids, self.dirty)

    def finalize(self, iteration: int) -> list[int]:
        """The point of no return; returns the stale-broadcast gids."""
        stale = self.proto.finalize_commit(self.lg, self.dirty, iteration)
        self._reset()
        return stale

    def abort(self) -> None:
        """Discard everything the superstep staged."""
        for slot in self.dirty.values():
            slot.clear_pending()
        self._reset()

    def _reset(self) -> None:
        self.dirty = {}
        self.partials = {}
        self.edge_updates.clear()

    # -- committed reads (between rounds only) ---------------------------

    def read(self, gids) -> dict:
        """Point reads; any local copy — master, replica or mirror —
        answers (``None`` for a gid this node does not hold)."""
        lg = self.lg
        return {gid: (lg.slot_of(gid).value if gid in lg.index_of
                      else None) for gid in gids}

    def topk(self, k: int) -> list[tuple]:
        """Local masters' top-K ``(value, gid)`` by (value desc, gid
        asc), as ``top_masters`` ranks them; the caller merges the
        per-node lists (``repro.serve.view.merge_top``)."""
        top = heapq.nlargest(k, ((slot.value, -slot.gid)
                                 for slot in self.lg.iter_masters()))
        return [(value, -neg_gid) for value, neg_gid in top]

    def committed_state(self) -> list[list]:
        """Every local copy's committed state, one list per column:
        gids, value, ``last_activates``, ``last_update_iter``,
        ``mirror_self_active``, ``active``, ``replicas_known_active``."""
        return [list(col) for col in zip(*[
            (slot.gid, slot.value, slot.last_activates,
             slot.last_update_iter, slot.mirror_self_active,
             slot.active, slot.replicas_known_active)
            for slot in self.lg.iter_slots()])]

"""Vectorized superstep executor: the structure-of-arrays fast path.

Runs one superstep array-at-a-time when the vertex program declares an
:class:`~repro.algorithms.kernels.ArrayKernel`, replacing the
per-vertex compute / sync-build / receive-staging / commit loops of
:class:`~repro.engine.engine.Engine` while keeping the per-vertex
:class:`~repro.engine.state.VertexSlot` array authoritative at every
barrier boundary.  The contract (DESIGN.md §11) is *bit-for-bit*
equality with the scalar loop: identical committed values, activity
sets, message/byte counters, elision counts and simulated time.

Lifecycle
---------
* Dynamic columns (values, activity flags) are read from the slots on
  first touch of a node (:meth:`_state`) and then *carried across
  supersteps*: the barrier commit dual-writes every slot update into
  the arrays, so at each barrier the columns equal the slots exactly.
* The cache is keyed by topology identity — any code path that rewrites
  slots outside the executor's own commit also invalidates the SoA
  topology (recovery's blanket :meth:`LocalGraph.invalidate_soa`,
  ``add_slot``/``remove_slot``), which makes :meth:`_state` rebuild the
  columns from the slots.  The one slot mutation that happens *without*
  a topology change is the vertex-cut phase-0 activity broadcast;
  :meth:`vertex_cut_compute` refreshes the two affected columns after
  it runs (only on supersteps where a broadcast was actually pending).
* Compute stages results into pending *arrays* (not slot fields);
  received sync batches stage into the same arrays.
* The barrier commit writes values/flags back to the slots (native
  Python scalars via ``tolist()``) *and* into the cached columns,
  resolves activations through the out-edge arrays, applies activity
  via :meth:`~repro.engine.local_graph.LocalGraph.set_active_bulk`,
  then clears the pending masks.
* A rollback drops the cached states entirely; the next superstep
  re-reads the (last-committed) slots.

Ordering notes: records within one batch are emitted in *position*
order here versus active-set iteration order in the scalar path.  That
is observationally equivalent — gids within a batch are distinct, the
byte accounting is order-independent, and the vertex-cut master fold
re-sorts partials by (position, sender) exactly as the scalar fold
sorts by sender per vertex.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import MessageKind
from repro.engine.messages import (
    ActivateBatch,
    GatherBatch,
    RawGatherBatch,
    SyncBatch,
)
from repro.errors import EngineError
from repro.utils.sizing import BYTES_PER_VID

#: Sentinel returned by :meth:`VectorizedExecutor.committed_value` when
#: no valid cached column exists for the node — the caller falls back
#: to the (then-authoritative) slot value.  A sentinel rather than
#: ``None`` because ``None`` could be a legitimate vertex value.
NO_COLUMN = object()


class _NodeState:
    """Per-node dynamic columns + pending staging.

    Cached across supersteps keyed by topology identity; the commit
    keeps the columns equal to the slots at every barrier.
    """

    __slots__ = ("topo", "values", "active", "last_activates",
                 "mirror_self_active", "replicas_known_active",
                 "last_update", "unflushed",
                 "pend_mask", "pend_values", "pend_activates",
                 "pend_self_active", "next_active")

    def __init__(self, lg, dtype):
        topo = lg.topology()
        slots = lg.slots
        n = topo.n
        self.topo = topo
        self.values = np.array(
            [(0 if s is None else s.value) for s in slots], dtype=dtype)
        self.active = np.fromiter(
            (s is not None and s.active for s in slots), bool, count=n)
        self.last_activates = np.fromiter(
            (s is not None and s.last_activates for s in slots),
            bool, count=n)
        self.mirror_self_active = np.fromiter(
            (s is not None and s.mirror_self_active for s in slots),
            bool, count=n)
        self.replicas_known_active = np.fromiter(
            (s is not None and s.replicas_known_active for s in slots),
            bool, count=n)
        self.last_update = np.fromiter(
            (-1 if s is None else s.last_update_iter for s in slots),
            np.int64, count=n)
        #: Positions whose committed value/flag columns are newer than
        #: the slots (writeback is deferred to :meth:`flush`).
        self.unflushed = np.zeros(n, dtype=bool)
        self.pend_mask = np.zeros(n, dtype=bool)
        self.pend_values = np.zeros(n, dtype=dtype)
        self.pend_activates = np.zeros(n, dtype=bool)
        self.pend_self_active = np.zeros(n, dtype=bool)
        self.next_active = np.zeros(n, dtype=bool)

    def refresh_activity(self, lg) -> None:
        """Re-read the two columns the phase-0 broadcast can change.

        The broadcast flips ``active`` on receiver replicas and
        ``replicas_known_active`` on sender masters via plain slot
        writes (no topology change), so a cached state must re-read
        them afterwards.
        """
        slots = lg.slots
        n = self.topo.n
        self.active = np.fromiter(
            (s is not None and s.active for s in slots), bool, count=n)
        self.replicas_known_active = np.fromiter(
            (s is not None and s.replicas_known_active for s in slots),
            bool, count=n)


class VectorizedExecutor:
    """Array-at-a-time superstep execution for one engine."""

    def __init__(self, engine, kernel):
        self.engine = engine
        self.kernel = kernel
        #: node -> _NodeState, cached across supersteps; a state is
        #: valid while its topology object is still the graph's cached
        #: one (recovery / slot churn invalidates the topology, which
        #: makes :meth:`_state` rebuild the columns from the slots).
        self._states: dict[int, _NodeState] = {}
        #: Vertex-cut: node -> [(positions, sender_nodes, accs)].
        self._partials: dict[int, list] = {}
        #: Whole-column slot writebacks performed (:meth:`flush` calls
        #: that found deferred commits).  The read-path contract is that
        #: point reads never advance this counter.
        self.flush_count = 0

    # -- per-superstep state -------------------------------------------

    def begin_superstep(self) -> None:
        self._partials = {}

    def rollback(self) -> None:
        """Flush committed columns, then discard all cached state.

        Pending (uncommitted) staging lives only in the ``pend_*``
        arrays and is dropped with the states; the flush writes the
        *last-committed* values, which is exactly what recovery must
        see on survivors.
        """
        self.flush()
        self._states = {}
        self._partials = {}

    def flush(self) -> None:
        """Write deferred column commits back into the slots.

        Called before any code path that reads slot values directly:
        recovery entry, checkpoint saves, chaos-plugin hooks, and
        :meth:`Engine.values`.  A no-op (per node) when nothing is
        pending, so it is safe to call eagerly.
        """
        for node, st in self._states.items():
            pos = np.flatnonzero(st.unflushed)
            if not pos.size:
                continue
            self.flush_count += 1
            slots = self.engine.local_graphs[node].slots
            for p, v, a, sa, it in zip(
                    pos.tolist(), st.values[pos].tolist(),
                    st.last_activates[pos].tolist(),
                    st.mirror_self_active[pos].tolist(),
                    st.last_update[pos].tolist()):
                slot = slots[p]
                slot.value = v
                slot.last_activates = a
                slot.mirror_self_active = sa
                slot.last_update_iter = it
            st.unflushed[:] = False

    def committed_value(self, node: int, pos: int):
        """Flush-free committed read of one position's column value.

        The committed columns are authoritative between barriers — the
        barrier commit dual-writes them and defers the slot writeback —
        so a point read can take the value straight from the array
        without forcing :meth:`flush`.  Returns :data:`NO_COLUMN` when
        the node has no valid cached state (fresh engine, post-recovery
        invalidation): the slots are then authoritative and the caller
        reads them directly.
        """
        st = self._states.get(node)
        if st is None or st.topo is not self.engine.local_graphs[node].topology():
            return NO_COLUMN
        return st.values[pos].item()

    def committed_columns(self, node: int):
        """The node's committed value column + topology, flush-free.

        Returns ``(topo, values)`` for bulk committed reads (top-K) or
        :data:`NO_COLUMN` when no valid cached state exists.
        """
        st = self._states.get(node)
        if st is None or st.topo is not self.engine.local_graphs[node].topology():
            return NO_COLUMN
        return st.topo, st.values

    def _state(self, node: int) -> _NodeState:
        lg = self.engine.local_graphs[node]
        st = self._states.get(node)
        if st is None or st.topo is not lg.topology():
            st = _NodeState(lg, self.kernel.dtype)
            self._states[node] = st
        return st

    # -- compute -------------------------------------------------------

    def edge_cut_compute(self, alive: list[int]) -> None:
        engine = self.engine
        self.begin_superstep()
        ctx = engine._ctx()
        # Same mid-loop chaos placement as the scalar path: a crash
        # lands after a prefix of the nodes computed and flushed.
        mid = (len(alive) + 1) // 2 if len(alive) > 1 else 0
        for i, node in enumerate(alive):
            if i == mid:
                engine._chaos_point("gather")
            if not engine.cluster.node(node).is_alive:
                continue
            st = self._state(node)
            topo = st.topo
            sel = st.active & topo.is_master
            esel = np.flatnonzero(sel[topo.in_dst]) \
                if topo.in_dst.size else topo.in_dst
            acc, has = self.kernel.edge_fold(topo, st.values, esel)
            self._master_compute(node, st, sel, acc, has, ctx)
            engine._step_edges[node] += int(topo.in_counts[sel].sum())
            engine._step_vertices[node] += int(sel.sum())

    def vertex_cut_compute(self, alive: list[int]) -> None:
        engine = self.engine
        self.begin_superstep()
        ctx = engine._ctx()
        net = engine.cluster.network
        kernel = self.kernel

        # Phase 0: activity broadcast — shared with the scalar path.
        # States cached from earlier supersteps must re-read the two
        # columns it mutates (fresh states read post-broadcast slots
        # anyway); skip when nothing was pending — the common case for
        # always-active programs.
        had_pending = any(engine._broadcast_pending.get(n)
                          for n in alive)
        engine._vertex_cut_broadcast(alive, net)
        if had_pending:
            for node in alive:
                st = self._states.get(node)
                lg = engine.local_graphs[node]
                # A topology-stale state is rebuilt from the slots on
                # its next _state() touch, which reads the
                # post-broadcast flags anyway.
                if st is not None and st.topo is lg.topology():
                    st.refresh_activity(lg)

        # Phase 1: partial gathers over local in-edges flow to masters.
        # Every kernel declares a combiner, so the combined batches
        # carry their pre-combine contribution counts (``folded``), and
        # with combining off the raw per-edge contributions ship in a
        # RawGatherBatch instead (DESIGN.md §15).
        combining = engine._combining
        for node in alive:
            st = self._state(node)
            topo = st.topo
            sel = st.active & topo.has_in
            esel = np.flatnonzero(sel[topo.in_dst]) \
                if topo.in_dst.size else topo.in_dst
            seg, contrib = kernel.edge_contrib(topo, st.values, esel)
            acc = kernel.init_acc(topo.n)
            kernel.fold_into(acc, seg, contrib)
            cnt = np.bincount(seg, minlength=topo.n) if seg.size \
                else np.zeros(topo.n, dtype=np.int64)
            selpos = np.flatnonzero(sel)
            local = selpos[topo.master_node[selpos] == node]
            if local.size:
                self._partials.setdefault(node, []).append(
                    (local, np.full(local.size, node, dtype=np.int64),
                     acc[local]))
            remote = selpos[topo.master_node[selpos] != node]
            if remote.size:
                outbox: dict = {}
                dsts = topo.master_node[remote]
                order = np.argsort(dsts, kind="stable")
                remote, dsts = remote[order], dsts[order]
                bounds = np.flatnonzero(np.r_[True, dsts[1:] != dsts[:-1]])
                rec_size = BYTES_PER_VID + kernel.acc_nbytes
                folded_all = np.maximum(cnt[remote], 1)
                if not combining:
                    # Raw shipping: gather every contributing edge of a
                    # remote record, grouped per record in batch order
                    # with the CSR within-group order preserved (the
                    # stable sort by record index), so the receiver's
                    # group folds replay the sender's fold exactly.
                    rec_idx = np.full(topo.n, -1, dtype=np.int64)
                    rec_idx[remote] = np.arange(remote.size)
                    rows = np.flatnonzero(rec_idx[seg] >= 0) \
                        if seg.size else seg
                    rows = rows[np.argsort(rec_idx[seg[rows]],
                                           kind="stable")]
                    flat = contrib[rows]
                    counts_all = cnt[remote]
                    coff = np.concatenate(
                        ([0], np.cumsum(counts_all)))
                    phys_all = (BYTES_PER_VID
                                + folded_all * kernel.acc_nbytes)
                for b, e in zip(bounds, np.r_[bounds[1:], dsts.size]):
                    grp = remote[b:e]
                    key = (int(dsts[b]), MessageKind.GATHER)
                    if combining:
                        outbox[key] = GatherBatch.from_columns(
                            topo.gids[grp].tolist(), acc[grp].tolist(),
                            [rec_size] * grp.size,
                            folded_all[b:e].tolist())
                    else:
                        outbox[key] = RawGatherBatch.from_columns(
                            topo.gids[grp].tolist(),
                            counts_all[b:e].tolist(),
                            flat[coff[b]:coff[e]].tolist(),
                            [rec_size] * grp.size,
                            phys_all[b:e].tolist())
                engine._flush_batches(node, outbox)
            engine._step_edges[node] += int(topo.in_counts[sel].sum())
        engine._chaos_point("gather")
        alive = engine._filter_alive(alive)
        for node in alive:
            st = self._state(node)
            for msg in net.deliver(node):
                batch = msg.payload
                if isinstance(batch, RawGatherBatch):
                    accs = kernel.fold_groups(
                        np.asarray(batch.counts, dtype=np.int64),
                        batch.contribs)
                else:
                    accs = np.asarray(batch.accs, dtype=kernel.dtype)
                pos = st.topo.translate(
                    np.asarray(batch.gids, dtype=np.int64))
                self._partials.setdefault(node, []).append(
                    (pos, np.full(pos.size, msg.src, dtype=np.int64),
                     accs))

        # Phase 2: masters fold partials in (position, sender) order —
        # the vector image of the scalar per-vertex sort-by-sender fold.
        for node in alive:
            st = self._state(node)
            topo = st.topo
            sel = st.active & topo.is_master
            acc = kernel.init_acc(topo.n)
            has = np.zeros(topo.n, dtype=bool)
            plist = self._partials.get(node)
            if plist:
                pos = np.concatenate([p for p, _, _ in plist])
                src = np.concatenate([s for _, s, _ in plist])
                accs = np.concatenate([a for _, _, a in plist])
                keep = sel[pos]
                pos, src, accs = pos[keep], src[keep], accs[keep]
                order = np.lexsort((src, pos))
                kernel.fold_into(acc, pos[order], accs[order])
                has[pos] = True
            self._master_compute(node, st, sel, acc, has, ctx)
            engine._step_vertices[node] += int(sel.sum())

    def _master_compute(self, node: int, st: _NodeState,
                        sel: np.ndarray, acc: np.ndarray,
                        has: np.ndarray, ctx) -> None:
        """Apply + stage + build syncs for one node's computed masters."""
        engine = self.engine
        kernel = self.kernel
        topo = st.topo
        old = st.values
        new = kernel.apply(topo.gids, old, acc, has, ctx)
        act = kernel.activates(topo.gids, old, new, ctx)
        stay = kernel.stays_active(topo.gids, old, new, ctx)
        st.pend_mask |= sel
        st.pend_values[sel] = new[sel]
        st.pend_activates[sel] = act[sel]
        st.pend_self_active[sel] = stay[sel]
        outbox: dict = {}
        if engine._sync_elision:
            noop = ~act & ~st.last_activates & (new == old)
            mirror_elide = noop & (stay == st.mirror_self_active)
        else:
            noop = mirror_elide = None
        skip_selfish = engine.selfish_opt_active
        plain_size = BYTES_PER_VID + kernel.value_nbytes + 1
        mirror_size = BYTES_PER_VID + kernel.value_nbytes + 2
        for (dst, is_mirror), positions in topo.sync_plan.items():
            cand = positions[sel[positions]]
            if skip_selfish and cand.size:
                cand = cand[~topo.selfish[cand]]
            if noop is not None and cand.size:
                elide = mirror_elide if is_mirror else noop
                keep = cand[~elide[cand]]
                engine.syncs_elided += int(cand.size - keep.size)
            else:
                keep = cand
            if not keep.size:
                continue
            # Flag bits mirror the scalar append calls exactly: plain
            # syncs carry only the activates bit.
            if is_mirror:
                flags = (act[keep] + 2 * stay[keep]).tolist()
                batch = SyncBatch.from_columns(
                    topo.gids[keep].tolist(), new[keep].tolist(), flags,
                    [mirror_size] * keep.size, full_state=True)
                outbox[(dst, MessageKind.MIRROR_SYNC)] = batch
            else:
                flags = act[keep].astype(np.int64).tolist()
                batch = SyncBatch.from_columns(
                    topo.gids[keep].tolist(), new[keep].tolist(), flags,
                    [plain_size] * keep.size)
                outbox[(dst, MessageKind.SYNC)] = batch
        engine._flush_batches(node, outbox)

    # -- receive staging ----------------------------------------------

    def stage_sync_batch(self, node: int, batch: SyncBatch) -> None:
        st = self._state(node)
        pos = st.topo.translate(np.asarray(batch.gids, dtype=np.int64))
        st.pend_mask[pos] = True
        st.pend_values[pos] = np.asarray(batch.values,
                                         dtype=self.kernel.dtype)
        flags = np.asarray(batch.flags, dtype=np.int64)
        st.pend_activates[pos] = (flags & SyncBatch.FLAG_ACTIVATES) != 0
        if batch.full_state:
            st.pend_self_active[pos] = \
                (flags & SyncBatch.FLAG_SELF_ACTIVE) != 0
            if any(batch.edge_updates):
                lg = self.engine.local_graphs[node]
                for i, updates in enumerate(batch.edge_updates):
                    if not updates:
                        continue
                    slot = lg.slot_of(batch.gids[i])
                    if slot.full_edges is None:
                        continue
                    for idx, weight in updates:
                        gid0, epos, _old = slot.full_edges[idx]
                        slot.full_edges[idx] = (gid0, epos, weight)

    # -- barrier commit ------------------------------------------------

    def commit_values(self, alive: list[int], net) -> int:
        """Array image of Engine._commit_values; same three stages."""
        engine = self.engine
        iteration = engine.iteration
        signals: list[tuple[int, np.ndarray, np.ndarray]] = []
        for node in alive:
            st = self._state(node)
            topo = st.topo
            pm = st.pend_mask
            # Stage 1a: activation scatter along local out-edges.
            sources = pm & st.pend_activates
            if sources.any() and topo.out_src.size:
                tgt = topo.out_dst[sources[topo.out_src]]
                if tgt.size:
                    m = topo.is_master[tgt]
                    st.next_active[tgt[m]] = True
                    rem = tgt[~m]
                    if rem.size:
                        signals.append((node, topo.master_node[rem],
                                        topo.gids[rem]))
            # Stage 1b: value/flag commit into the columns; the slot
            # writeback is deferred (marked ``unflushed``) and performed
            # by :meth:`flush` before anything reads the slots.
            pos = np.flatnonzero(pm)
            if pos.size:
                st.values[pos] = st.pend_values[pos]
                st.last_activates[pos] = st.pend_activates[pos]
                st.last_update[pos] = iteration
                st.unflushed[pos] = True

        # Stage 2: remote activation signals travel to the masters.
        if signals:
            per_src: dict[int, dict] = {}
            for src_node, dsts, gids in signals:
                # Unique + lexicographic (dst, gid) order reproduces the
                # scalar path's globally sorted signal set per source.
                pairs = np.unique(np.stack([dsts, gids], axis=1), axis=0)
                outbox = per_src.setdefault(src_node, {})
                dcol, gcol = pairs[:, 0], pairs[:, 1]
                bounds = np.flatnonzero(
                    np.r_[True, dcol[1:] != dcol[:-1]])
                for b, e in zip(bounds, np.r_[bounds[1:], dcol.size]):
                    outbox[(int(dcol[b]), MessageKind.ACTIVATE)] = \
                        ActivateBatch(gcol[b:e].tolist())
            for src_node in sorted(per_src):
                engine._flush_batches(src_node, per_src[src_node])
            for node in alive:
                st = self._state(node)
                for msg in net.deliver(node):
                    if msg.kind is not MessageKind.ACTIVATE:
                        raise EngineError(
                            f"unexpected {msg.kind.value} message from "
                            f"node {msg.src} in the activation exchange "
                            f"of iteration {iteration}")
                    pos = st.topo.translate(
                        np.asarray(msg.payload.gids, dtype=np.int64))
                    st.next_active[pos] = True

        # Stage 3: finalise activity, mirror shadows, broadcast queue.
        total = 0
        for node in alive:
            st = self._state(node)
            topo = st.topo
            lg = engine.local_graphs[node]
            pm = st.pend_mask
            touched = np.flatnonzero((pm | st.next_active)
                                     & topo.is_master)
            if touched.size:
                new_active = ((pm[touched] & st.pend_self_active[touched])
                              | st.next_active[touched])
                # Master/mirror self-activity shadows commit into the
                # columns; the slot write rides the deferred flush
                # (withp and mirrors are pend-masked, so stage 1b
                # already marked them unflushed).
                withp = touched[pm[touched]]
                st.mirror_self_active[withp] = st.pend_self_active[withp]
                # Only flip slots whose activity actually changed — the
                # column mirrors the slot flags, so the delta filter
                # leaves slot state and active sets exactly as the
                # full-write would (always-active programs skip the
                # whole per-slot loop).
                cmask = new_active != st.active[touched]
                if cmask.any():
                    lg.set_active_bulk(touched[cmask].tolist(),
                                       new_active[cmask].tolist())
                st.active[touched] = new_active
                if not engine.is_edge_cut:
                    stale = touched[
                        new_active != st.replicas_known_active[touched]]
                    if stale.size:
                        engine._broadcast_pending[node].update(
                            topo.gids[stale].tolist())
            mirrors = np.flatnonzero(pm & topo.is_mirror)
            st.mirror_self_active[mirrors] = st.pend_self_active[mirrors]
            # Reset the per-superstep staging; value/flag staging
            # arrays need no clearing — every read is pend_mask-gated.
            st.pend_mask[:] = False
            st.next_active[:] = False
            total += len(lg.active_masters)
        return total

"""Vectorized superstep execution: the structure-of-arrays fast path.

Runs one superstep array-at-a-time when the vertex program declares an
:class:`~repro.algorithms.kernels.ArrayKernel`, in the three layers of
DESIGN.md §12:

* :class:`ArrayNodeProtocol` — the array image of
  :class:`~repro.exec.protocol.NodeProtocol`: every compute, staging
  and commit step of *one* partition over :class:`_NodeState` columns
  and plain outbox dicts.
* :class:`_NodeState` — the per-node object: one partition's columns
  bound to the protocol behind the round interface of
  :mod:`repro.exec.protocol`.  Like the protocol it knows no engine,
  cluster, network, tracer or chaos hook, so the multiprocessing
  backend's forked workers run the same objects.
* the drivers — ``Engine`` and the mp worker — are shared with the
  scalar path; :class:`VectorizedExecutor` is what only the simulator's
  array path needs beside them: the state cache with its deferred slot
  writeback.

The contract is *bit-for-bit* equality with the scalar loop: identical
committed values, activity sets, message/byte counters, elision counts
and simulated time.

Lifecycle
---------
* The topology every column is indexed by is born with the node's
  slots at load (``engine/construction.py``); dynamic columns (values,
  activity flags) are read from the slots on first touch of a node and
  then *carried across supersteps*; only the barrier commit writes
  them, so at each barrier they hold the committed state exactly.
* The executor's cache is keyed by topology identity — whoever writes
  a node's slots, edge lists or metadata outside the commit invalidates
  *that node's* topology at the write (:meth:`LocalGraph.invalidate_soa`),
  which makes :meth:`_state` read that node's topology and columns back
  out of the slots; every other node keeps its image, through recovery
  too.  The
  one slot mutation *without* a topology change is the vertex-cut
  phase-0 activity broadcast; the state re-reads the two affected
  columns before its next gather (:meth:`_NodeState.refresh_activity`).
* Compute and received sync batches stage into pending *arrays*.
* The barrier commit is split where the multiprocessing backend splits
  it: an abortable stage 1 (activation scatter), the activation intake,
  and a finalize that *alone* writes the committed columns and applies
  activity via :meth:`~repro.engine.local_graph.LocalGraph.
  set_active_bulk`.  The slot writeback of values and flags is deferred
  (:meth:`VectorizedExecutor.flush`).
* A rollback flushes and clears the uncommitted staging; the committed
  columns stay, since only the commit writes them.

Ordering notes: records within one batch are emitted in *position*
order here versus active-set iteration order in the scalar path.  That
is observationally equivalent — gids within a batch are distinct, the
byte accounting is order-independent, and the vertex-cut master fold
re-sorts partials by (position, sender) exactly as the scalar fold
sorts by sender per vertex.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.cluster.network import MessageKind
from repro.engine.messages import (
    ActivateBatch,
    GatherBatch,
    RawGatherBatch,
    SyncBatch,
)
from repro.exec.protocol import NodeProtocol
from repro.utils.sizing import BYTES_PER_VID

#: Sentinel returned by :meth:`VectorizedExecutor.committed_value` when
#: no valid cached column exists for the node — the caller falls back
#: to the (then-authoritative) slot value.  A sentinel rather than
#: ``None`` because ``None`` could be a legitimate vertex value.
NO_COLUMN = object()


class _NodeState:
    """Per-node dynamic columns + pending staging, bound to the
    :class:`ArrayNodeProtocol` that computes on them: the array per-node
    object behind the round interface (:mod:`repro.exec.protocol`).

    The committed columns (``values`` … ``last_update``) change only in
    :meth:`ArrayNodeProtocol.finalize_commit`; everything a superstep
    stages lives in ``pend_*``, ``next_active`` and ``partials``.
    """

    __slots__ = ("proto", "_lg", "node", "topo", "values", "active",
                 "last_activates", "mirror_self_active",
                 "replicas_known_active", "last_update", "unflushed",
                 "pend_mask", "pend_values", "pend_activates",
                 "pend_self_active", "next_active", "partials",
                 "activity_stale")

    def __init__(self, proto, lg):
        topo = lg.topology()
        slots = lg.slots
        n = topo.n
        dtype = proto.kernel.dtype
        self.proto = proto
        # Weak: the simulator's cache keeps a stale state until its node
        # is next touched, and that must not keep the graph a recovery
        # replaced (every slot of it) alive beside the new one.
        self._lg = weakref.ref(lg)
        self.node = lg.node_id
        self.topo = topo
        self.values = np.array(
            [(0 if s is None else s.value) for s in slots], dtype=dtype)
        self.last_activates = np.fromiter(
            (s is not None and s.last_activates for s in slots),
            bool, count=n)
        self.mirror_self_active = np.fromiter(
            (s is not None and s.mirror_self_active for s in slots),
            bool, count=n)
        self.last_update = np.fromiter(
            (-1 if s is None else s.last_update_iter for s in slots),
            np.int64, count=n)
        self.refresh_activity()
        #: Positions whose committed value/flag columns are newer than
        #: the slots (writeback is deferred to the executor's flush).
        self.unflushed = np.zeros(n, dtype=bool)
        self.pend_mask = np.zeros(n, dtype=bool)
        self.pend_values = np.zeros(n, dtype=dtype)
        self.pend_activates = np.zeros(n, dtype=bool)
        self.pend_self_active = np.zeros(n, dtype=bool)
        self.next_active = np.zeros(n, dtype=bool)
        #: Vertex-cut: [(positions, sender_nodes, accs)] gathered this
        #: superstep for the local masters.
        self.partials: list = []

    @property
    def lg(self):
        return self._lg()

    def refresh_activity(self) -> None:
        """(Re-)read the two columns the phase-0 broadcast can change.

        The broadcast flips ``active`` on receiver replicas and
        ``replicas_known_active`` on sender masters via plain slot
        writes (no topology change), so a state that sent or received
        one re-reads them before its next gather.
        """
        slots = self.lg.slots
        n = self.topo.n
        self.active = np.fromiter(
            (s is not None and s.active for s in slots), bool, count=n)
        self.replicas_known_active = np.fromiter(
            (s is not None and s.replicas_known_active for s in slots),
            bool, count=n)
        self.activity_stale = False

    # -- the round interface: the protocol bound to these columns ------

    def broadcast_build(self, pending) -> dict:
        """Phase 0 is the scalar code on both paths: slots stay
        authoritative for *activity*."""
        if pending:
            self.activity_stale = True
        return NodeProtocol.broadcast_build(self.lg, pending)

    def broadcast_apply(self, batch) -> None:
        self.activity_stale = True
        NodeProtocol.broadcast_apply(self.lg, batch)

    def compute(self, ctx, outbox: dict) -> tuple[int, int, int]:
        return self.proto.edge_cut_compute_node(self, ctx, outbox)

    def gather(self, ctx, outbox: dict) -> int:
        if self.activity_stale:
            self.refresh_activity()
        return self.proto.vertex_gather(self, outbox)

    def intake(self, src: int, batch) -> None:
        self.proto.intake_partials(self, src, batch)

    def fold_apply(self, ctx, outbox: dict) -> tuple[int, int]:
        return self.proto.master_fold_apply(self, ctx, outbox)

    def stage(self, batch) -> None:
        self.proto.stage_sync_batch(self, batch)

    def stage1(self, iteration: int) -> dict:
        return self.proto.commit_stage1(self)

    def activate(self, gids) -> None:
        self.proto.apply_activations(self, gids)

    def finalize(self, iteration: int) -> list:
        return self.proto.finalize_commit(self, self.lg, iteration)

    def abort(self) -> None:
        """Clear the uncommitted staging; the committed columns stay,
        since only the commit writes them."""
        self.pend_mask[:] = False
        self.next_active[:] = False
        self.partials = []

    # -- committed reads -------------------------------------------------

    def read(self, gids) -> dict:
        """Committed values by gid (``None`` for a gid not held here)."""
        local = [gid for gid in gids if gid in self.lg.index_of]
        values = dict.fromkeys(gids)
        values.update(zip(local, self.values[self.topo.translate(
            np.asarray(local, dtype=np.int64))].tolist()))
        return values

    def topk(self, k: int) -> list[tuple]:
        return [(gid, value) for value, gid in
                top_masters(self.topo, self.values, k)]

    def committed_state(self) -> list[list]:
        """Every local copy's committed state, one list per column:
        gids, value, ``last_activates``, ``last_update_iter``,
        ``mirror_self_active``, ``active``, ``replicas_known_active``."""
        occ = np.flatnonzero(self.topo.occupied)
        return [col[occ].tolist() for col in (
            self.topo.gids, self.values, self.last_activates,
            self.last_update, self.mirror_self_active, self.active,
            self.replicas_known_active)]


def _runs(keys: np.ndarray):
    """``(start, stop)`` of every run of equal keys in a sorted column."""
    bounds = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return zip(bounds, np.r_[bounds[1:], keys.size])


def top_masters(topo, values: np.ndarray, k: int,
                largest: bool = True) -> list[tuple]:
    """The K extreme ``(value, gid)`` pairs among one node's masters,
    best-first, ties toward the lower gid."""
    pos = np.flatnonzero(topo.is_master)
    vals, gids = values[pos], topo.gids[pos]
    order = np.lexsort((gids, -vals if largest else vals))[:k]
    return list(zip(vals[order].tolist(), gids[order].tolist()))


class ArrayNodeProtocol:
    """The array superstep protocol of one partition (both modes).

    Same knobs and the same per-node phases as the scalar
    :class:`~repro.exec.protocol.NodeProtocol`, operating on a
    :class:`_NodeState`; sync, gather and activation batches accumulate
    into caller-owned ``outbox`` dicts keyed ``(dst_node, kind)``.
    Stateless across supersteps, so one instance serves every partition
    of a backend.
    """

    def __init__(self, kernel, is_edge_cut: bool,
                 sync_elision: bool = True, selfish_opt: bool = False,
                 combining: bool = True):
        self.kernel = kernel
        self.is_edge_cut = is_edge_cut
        self.sync_elision = sync_elision
        self.selfish_opt = selfish_opt
        self.combining = combining

    def new_state(self, lg) -> _NodeState:
        """``lg``'s columns over its (cached, else rebuilt) topology."""
        return _NodeState(self, lg)

    # -- compute -------------------------------------------------------

    def edge_cut_compute_node(self, st: _NodeState, ctx,
                              outbox: dict) -> tuple[int, int, int]:
        """One node's edge-cut superstep: gather + apply + stage syncs.

        Returns ``(edges_folded, vertices_computed, syncs_elided)``.
        """
        topo = st.topo
        sel = st.active & topo.is_master
        esel = np.flatnonzero(sel[topo.in_dst]) \
            if topo.in_dst.size else topo.in_dst
        acc, has = self.kernel.edge_fold(topo, st.values, esel)
        elided = self._master_compute(st, sel, acc, has, ctx, outbox)
        return int(topo.in_counts[sel].sum()), int(sel.sum()), elided

    def vertex_gather(self, st: _NodeState, outbox: dict) -> int:
        """One node's vertex-cut gather phase (phase 1).

        Local partials go to ``st.partials``; remote ones accumulate
        into per-master gather batches.  Every kernel declares a
        combiner, so the combined batches carry their pre-combine
        contribution counts (``folded``), and with combining off the
        raw per-edge contributions ship in a RawGatherBatch instead
        (DESIGN.md §15).  Returns the number of edges folded.
        """
        kernel = self.kernel
        node = st.node
        topo = st.topo
        st.partials = []
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
            st.partials.append(
                (local, np.full(local.size, node, dtype=np.int64),
                 acc[local]))
        remote = selpos[topo.master_node[selpos] != node]
        if remote.size:
            dsts = topo.master_node[remote]
            order = np.argsort(dsts, kind="stable")
            remote, dsts = remote[order], dsts[order]
            rec_size = BYTES_PER_VID + kernel.acc_nbytes
            folded_all = np.maximum(cnt[remote], 1)
            if not self.combining:
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
                coff = np.concatenate(([0], np.cumsum(counts_all)))
                phys_all = (BYTES_PER_VID
                            + folded_all * kernel.acc_nbytes)
            for b, e in _runs(dsts):
                grp = remote[b:e]
                key = (int(dsts[b]), MessageKind.GATHER)
                if self.combining:
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
        return int(topo.in_counts[sel].sum())

    def intake_partials(self, st: _NodeState, src: int, batch) -> None:
        """Stage one received gather batch for the master fold."""
        kernel = self.kernel
        if isinstance(batch, RawGatherBatch):
            accs = kernel.fold_groups(
                np.asarray(batch.counts, dtype=np.int64), batch.contribs)
        else:
            accs = np.asarray(batch.accs, dtype=kernel.dtype)
        pos = st.topo.translate(np.asarray(batch.gids, dtype=np.int64))
        st.partials.append(
            (pos, np.full(pos.size, src, dtype=np.int64), accs))

    def master_fold_apply(self, st: _NodeState, ctx,
                          outbox: dict) -> tuple[int, int]:
        """One node's vertex-cut apply phase (phase 2): masters fold
        partials in (position, sender) order — the vector image of the
        scalar per-vertex sort-by-sender fold.  Returns
        ``(vertices_computed, syncs_elided)``."""
        kernel = self.kernel
        topo = st.topo
        sel = st.active & topo.is_master
        acc = kernel.init_acc(topo.n)
        has = np.zeros(topo.n, dtype=bool)
        if st.partials:
            pos = np.concatenate([p for p, _, _ in st.partials])
            src = np.concatenate([s for _, s, _ in st.partials])
            accs = np.concatenate([a for _, _, a in st.partials])
            keep = sel[pos]
            pos, src, accs = pos[keep], src[keep], accs[keep]
            order = np.lexsort((src, pos))
            kernel.fold_into(acc, pos[order], accs[order])
            has[pos] = True
        elided = self._master_compute(st, sel, acc, has, ctx, outbox)
        return int(sel.sum()), elided

    def _master_compute(self, st: _NodeState, sel: np.ndarray,
                        acc: np.ndarray, has: np.ndarray, ctx,
                        outbox: dict) -> int:
        """Apply + stage + build syncs for one node's computed masters;
        returns the number of sync records elided."""
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
        if self.sync_elision:
            noop = ~act & ~st.last_activates & (new == old)
            mirror_elide = noop & (stay == st.mirror_self_active)
        else:
            noop = mirror_elide = None
        elided = 0
        plain_size = BYTES_PER_VID + kernel.value_nbytes + 1
        mirror_size = BYTES_PER_VID + kernel.value_nbytes + 2
        for (dst, is_mirror), positions in topo.sync_plan.items():
            cand = positions[sel[positions]]
            if self.selfish_opt and cand.size:
                cand = cand[~topo.selfish[cand]]
            if noop is not None and cand.size:
                elide = mirror_elide if is_mirror else noop
                keep = cand[~elide[cand]]
                elided += int(cand.size - keep.size)
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
        return elided

    # -- receive staging ----------------------------------------------

    def stage_sync_batch(self, st: _NodeState, batch: SyncBatch) -> None:
        """Stage every record of one received sync batch (kernel-backed
        programs never mutate edges, so there are no edge updates)."""
        pos = st.topo.translate(np.asarray(batch.gids, dtype=np.int64))
        st.pend_mask[pos] = True
        st.pend_values[pos] = np.asarray(batch.values,
                                         dtype=self.kernel.dtype)
        flags = np.asarray(batch.flags, dtype=np.int64)
        st.pend_activates[pos] = (flags & SyncBatch.FLAG_ACTIVATES) != 0
        if batch.full_state:
            st.pend_self_active[pos] = \
                (flags & SyncBatch.FLAG_SELF_ACTIVE) != 0

    # -- barrier commit ------------------------------------------------

    def commit_stage1(self, st: _NodeState) -> dict:
        """Scatter the staged activations along local out-edges.

        Local masters are marked in ``next_active``; remote ones come
        back as one :class:`ActivateBatch` per master node, gids unique
        and sorted (the scalar path's globally sorted signal set).
        Abortable: no committed column is touched before
        :meth:`finalize_commit`, so a backend that loses a worker
        mid-commit can still export the previous commit from survivors.
        """
        topo = st.topo
        outbox: dict = {}
        sources = st.pend_mask & st.pend_activates
        if sources.any() and topo.out_src.size:
            tgt = topo.out_dst[sources[topo.out_src]]
            m = topo.is_master[tgt]
            st.next_active[tgt[m]] = True
            rem = tgt[~m]
            if rem.size:
                # Unique sorted (master node, gid) pairs on one int64
                # key; np.unique(axis=0) on the row pairs is 10x slower.
                stride = int(topo.gids.max()) + 1
                dcol, gcol = np.divmod(np.unique(
                    topo.master_node[rem] * stride + topo.gids[rem]),
                    stride)
                for b, e in _runs(dcol):
                    outbox[(int(dcol[b]), MessageKind.ACTIVATE)] = \
                        ActivateBatch(gcol[b:e].tolist())
        return outbox

    def apply_activations(self, st: _NodeState, gids) -> None:
        """Mark remote activation signals received for local masters."""
        st.next_active[st.topo.translate(
            np.asarray(gids, dtype=np.int64))] = True

    def finalize_commit(self, st: _NodeState, lg, iteration: int) -> list:
        """Commit pending values and finalise activity — the point of
        no return of the superstep, and the only writer of the
        committed columns.  The slot writeback of values and flags is
        deferred (marked ``unflushed``); activity goes to the slots at
        once, for the positions whose flag changed.

        Returns the master gids whose activity now differs from what
        their replicas believe (vertex-cut broadcast backlog; always
        empty under edge-cut).
        """
        topo = st.topo
        pm = st.pend_mask
        pos = np.flatnonzero(pm)
        if pos.size:
            st.values[pos] = st.pend_values[pos]
            st.last_activates[pos] = st.pend_activates[pos]
            st.last_update[pos] = iteration
            st.unflushed[pos] = True
        stale: list = []
        touched = np.flatnonzero((pm | st.next_active) & topo.is_master)
        if touched.size:
            new_active = ((pm[touched] & st.pend_self_active[touched])
                          | st.next_active[touched])
            # Master/mirror self-activity shadows commit into the
            # columns; the slot write rides the deferred flush (withp
            # and mirrors are pend-masked, hence marked unflushed).
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
            if not self.is_edge_cut:
                stale = topo.gids[touched[
                    new_active != st.replicas_known_active[touched]]
                ].tolist()
        mirrors = np.flatnonzero(pm & topo.is_mirror)
        st.mirror_self_active[mirrors] = st.pend_self_active[mirrors]
        # Reset the per-superstep staging; value/flag staging
        # arrays need no clearing — every read is pend_mask-gated.
        st.pend_mask[:] = False
        st.next_active[:] = False
        return stale


class VectorizedExecutor:
    """The simulator's cache of :class:`_NodeState` objects for one
    engine, with their deferred slot writeback (the engine's own
    superstep drivers run the states)."""

    def __init__(self, engine, kernel):
        self.engine = engine
        self.proto = ArrayNodeProtocol(
            kernel, engine.is_edge_cut,
            sync_elision=engine._sync_elision,
            combining=engine._combining)
        #: node -> _NodeState, cached across supersteps; a state is
        #: valid while its topology object is still the graph's cached
        #: one (a write outside the commit invalidates the written
        #: node's topology, which makes :meth:`state` rebuild that
        #: node's columns from the slots).
        self._states: dict[int, _NodeState] = {}
        #: States built from the slots; the ``soa.state_builds`` counter.
        self.state_builds = 0
        #: Whole-column slot writebacks performed (:meth:`flush` calls
        #: that found deferred commits).  The read-path contract is that
        #: point reads never advance this counter.
        self.flush_count = 0

    # -- state cache ---------------------------------------------------

    def rollback(self) -> None:
        """Flush committed columns, then clear the uncommitted staging.

        The flush writes the *last-committed* values, which is exactly
        what recovery, repair and membership moves must see in the
        slots; the committed columns stay — whoever then writes a
        node's slots invalidates that node's image itself.
        """
        self.flush()
        for st in self._states.values():
            st.abort()

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
        barrier commit writes them and defers the slot writeback — so a
        point read can take the value straight from the array without
        forcing :meth:`flush`.  Returns :data:`NO_COLUMN` when the node
        has no valid cached state (fresh engine, post-recovery
        invalidation): the slots are then authoritative and the caller
        reads them directly.
        """
        cols = self.committed_columns(node)
        return cols if cols is NO_COLUMN else cols[1][pos].item()

    def committed_columns(self, node: int):
        """The node's committed value column + topology, flush-free.

        Returns ``(topo, values)`` for bulk committed reads (top-K) or
        :data:`NO_COLUMN` when no valid cached state exists.
        """
        st = self.valid_state(node)
        return NO_COLUMN if st is None else (st.topo, st.values)

    def valid_state(self, node: int) -> _NodeState | None:
        """The node's cached state if its image is still the graph's,
        else ``None``.  Peeks: only :meth:`state` builds."""
        st = self._states.get(node)
        image = self.engine.local_graphs[node].cached_topology
        return st if st is not None and st.topo is image else None

    def state(self, node: int) -> _NodeState:
        """The node's round object, (re)built from the slots when its
        image was invalidated since the last touch."""
        st = self.valid_state(node)
        if st is None:
            st = self._states[node] = self.proto.new_state(
                self.engine.local_graphs[node])
            self.state_builds += 1
            self.engine.metrics.inc("soa.state_builds")
        return st

    def rebuild_stale(self) -> list[int]:
        """Rebuild every live node's invalidated state now; returns the
        nodes.  Never-touched ones (the mp parent's, all) stay lazy."""
        stale = [n for n in self.engine._alive()
                 if n in self._states and self.valid_state(n) is None]
        for node in stale:
            self.state(node)
        return stale

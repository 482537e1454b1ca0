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
  array path needs beside them: the state cache.

The contract is *bit-for-bit* equality with the scalar loop: identical
committed values, activity flags, message/byte counters, elision counts
and simulated time.

Lifecycle
---------
* The topology every column is indexed by is born with the node
  (``engine/construction.py``), and so are the committed dynamic
  columns (values, activity flags): the graph owns them — they are the
  only copy of that state, which a slot stamped there reads and writes
  — and a state *adopts* them on first touch of a node and then carries
  them across supersteps.  Within a superstep only the barrier commit
  writes them, so at each barrier they hold the committed state exactly.
* The executor's cache is keyed by topology identity — whoever writes
  a node's structure (slots, edge lists, metadata) outside the commit
  invalidates *that node's* topology at the write
  (:meth:`LocalGraph.invalidate_soa`), which makes :meth:`_state` read
  that node's topology back out of the slots and re-adopt its columns;
  every other node keeps its image, through recovery too.  The
  vertex-cut phase-0 activity broadcast writes the columns too
  (``active`` on receiver replicas, ``replicas_known_active`` on sender
  masters).
* A superstep is a constant number of array passes per node, whatever
  the number of peers: the sync build is one pass over the flat plan
  (``NodeTopology.sync_pos``) — on a dense superstep (every master
  computes, nothing elided) one gather of the values over the state's
  static :class:`_DensePlan` — and the node's whole inbox of received
  sync batches stages into pending *arrays* with one scatter per column
  (a sync record carries its position here).  The vertex-cut exchanges
  sort nothing per superstep: the remote gather records and activation
  signals are read off the image's static ``gather_order`` /
  ``act_order`` (on a dense frontier the activation hit mask is its
  ``out_hit``), and a node's whole gather inbox and whole activation
  inbox each stage with one concatenation and one gid lookup.
* A dense combined gather ships the state's static :class:`_GatherPlan`,
  and the receive side is static too: per exchange (sync staging,
  gather intake, master fold) a state reuses the *layout* it derived
  from its last inbox when the next one carries the same read-only key
  columns (:func:`_recall`; DESIGN.md §10).
* The barrier commit is split where the multiprocessing backend splits
  it: an abortable stage 1 (activation scatter), the activation intake,
  and a finalize that *alone* writes the committed columns, activity
  included (the ``active`` column is the only record of it).
* A rollback clears the uncommitted staging; the committed columns
  stay, since only the commit writes them.

Ordering notes: both paths visit a node's active copies in *position*
order (the scalar loops walk the set positions of the ``active``
column), so records within one batch come out in the same order; the
vertex-cut master fold re-sorts partials by (position, sender) exactly
as the scalar fold sorts by sender per vertex.
"""

from __future__ import annotations

import operator
import weakref

import numpy as np

from repro.cluster.network import MessageKind
from repro.engine.messages import (
    ActivateBatch,
    ActiveBroadcastBatch,
    GatherBatch,
    RawGatherBatch,
    SyncBatch,
)
from repro.errors import EngineError
from repro.utils.sizing import BYTES_PER_VID


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
                 "replicas_known_active", "last_update",
                 "pend_mask", "pend_values", "pend_activates",
                 "pend_self_active", "next_active", "partials", "plan",
                 "gather_plan", "layouts")

    def __init__(self, proto, lg):
        topo = lg.topology()
        n = topo.n
        dtype = proto.kernel.dtype
        if lg.values.dtype != dtype:
            lg.values = lg.values.astype(dtype)
        self.proto = proto
        # Weak: the simulator's cache keeps a stale state until its node
        # is next touched, and that must not keep the graph a recovery
        # replaced (every slot of it) alive beside the new one.
        self._lg = weakref.ref(lg)
        self.node = lg.node_id
        self.topo = topo
        # Adopted, not copied: the graph's committed columns, which the
        # commit writes in place and a bound slot reads and writes.
        self.values = lg.values
        self.active = lg.active
        self.last_activates = lg.last_activates
        self.mirror_self_active = lg.mirror_self_active
        self.replicas_known_active = lg.replicas_known_active
        self.last_update = lg.last_update
        self.pend_mask = np.zeros(n, dtype=bool)
        self.pend_values = np.zeros(n, dtype=dtype)
        self.pend_activates = np.zeros(n, dtype=bool)
        self.pend_self_active = np.zeros(n, dtype=bool)
        self.next_active = np.zeros(n, dtype=bool)
        #: Vertex-cut: [(positions, sender_nodes, accs)] gathered this
        #: superstep for the local masters.
        self.partials: list = []
        #: The image's :class:`_DensePlan` / :class:`_GatherPlan`, built
        #: on first use.
        self.plan: _DensePlan | None = None
        self.gather_plan: _GatherPlan | None = None
        #: exchange -> (keys, shape, layout) of its last inbox.
        self.layouts: dict = {}

    @property
    def lg(self):
        return self._lg()

    # -- the round interface: the protocol bound to these columns ------

    def broadcast_build(self, pending) -> dict:
        """Phase 0 on the columns: the masters in ``pending`` whose
        activity differs from what their replicas believe, in gid order,
        each flag sent to its copies in metadata order — the walk (and
        send order) of the scalar
        :meth:`~repro.exec.protocol.NodeProtocol.broadcast_build`.
        Stamps nothing: a copy's placement is its slot's if stamped,
        else its birth record's."""
        lg = self.lg
        pos = self.topo.find(sorted(pending))
        pos = pos[pos >= 0]
        pos = pos[self.topo.is_master[pos]
                  & (self.active[pos] != self.replicas_known_active[pos])]
        flags = self.active[pos]
        outbox: dict = {}
        meta = lg.slots.metadata(pos)
        ptr, nodes = (meta[name].tolist()
                      for name in ("replica_ptr", "replica_nodes"))
        for gid, flag, lo, hi in zip(self.topo.gids[pos].tolist(),
                                     flags.tolist(), ptr, ptr[1:]):
            for replica_node in nodes[lo:hi]:
                key = (replica_node, MessageKind.CONTROL)
                batch = outbox.get(key)
                if batch is None:
                    batch = outbox[key] = ActiveBroadcastBatch()
                batch.append(gid, flag)
        self.replicas_known_active[pos] = flags
        return outbox

    def broadcast_apply(self, batch) -> None:
        self.active[self.topo.translate(
            np.asarray(batch.gids, dtype=np.int64))] = batch.actives

    def compute(self, ctx, outbox: dict) -> tuple[int, int, int]:
        return self.proto.edge_cut_compute_node(self, ctx, outbox)

    def gather(self, ctx, outbox: dict) -> int:
        return self.proto.vertex_gather(self, outbox)

    def intake(self, frames) -> None:
        self.proto.intake_partials(self, frames)

    def fold_apply(self, ctx, outbox: dict) -> tuple[int, int]:
        return self.proto.master_fold_apply(self, ctx, outbox)

    def stage(self, batches) -> None:
        self.proto.stage_inbox(self, batches)

    def stage1(self, iteration: int) -> dict:
        return self.proto.commit_stage1(self)

    def activate(self, columns) -> None:
        if columns:
            self.proto.apply_activations(self, np.concatenate(
                [np.asarray(gids, dtype=np.int64) for gids in columns]))

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
        pos = self.topo.find(gids)
        held = np.flatnonzero(pos >= 0)
        values = dict.fromkeys(gids)
        values.update(zip(np.asarray(gids, dtype=np.int64)[held].tolist(),
                          self.values[pos[held]].tolist()))
        return values

    def topk(self, k: int) -> list[tuple]:
        pos = np.flatnonzero(self.topo.is_master)
        return top_masters(self.topo.gids[pos], self.values[pos], k)

    def active_master_count(self) -> int:
        """The masters whose committed ``active`` flag is set."""
        return int(np.count_nonzero(self.active & self.topo.is_master))

    def committed_state(self) -> list[list]:
        """Every local copy's committed state, one list per column:
        gids, value, ``last_activates``, ``last_update_iter``,
        ``mirror_self_active``, ``active``, ``replicas_known_active``."""
        occ = np.flatnonzero(self.topo.occupied)
        return [col[occ].tolist() for col in (
            self.topo.gids, self.values, self.last_activates,
            self.last_update, self.mirror_self_active, self.active,
            self.replicas_known_active)]


class _DensePlan:
    """One image's sync batches on a dense superstep — every master
    computes, nothing is elided — where only the values (and the flags,
    unless every master activates and stays active) change (DESIGN.md
    §10).  ``pos`` / ``mirror``: the live plan records, every planned
    copy minus selfish masters under ``selfish`` masking (views of the
    image's plan when nothing is masked); per batch, its key, kind,
    bounds in ``pos``, read-only gid and receiver-position columns,
    zero-stride sizes and constant flags, and ``nbytes``."""

    __slots__ = ("selfish", "pos", "mirror", "batches")

    def __init__(self, topo, kernel, selfish: bool):
        self.selfish = selfish
        pos, peers, mirror = topo.sync_pos, topo.sync_peer, topo.sync_mirror
        bounds = topo.sync_ptr
        if selfish and topo.selfish[pos].any():
            live = ~topo.selfish[pos]
            bounds = np.concatenate(([0], np.cumsum(live)))[bounds]
            pos, peers, mirror = pos[live], peers[live], mirror[live]
        self.pos, self.mirror = pos, mirror
        gids = topo.gids[pos]
        gids.flags.writeable = peers.flags.writeable = False
        plain = BYTES_PER_VID + kernel.value_nbytes + 1
        bounds = bounds.tolist()
        self.batches = [
            ((dst, MessageKind.MIRROR_SYNC if full else MessageKind.SYNC),
             full, b, e, gids[b:e], peers[b:e],
             np.broadcast_to(np.int64(plain + full), e - b),
             np.broadcast_to(np.int64(1 + 2 * full), e - b),
             (e - b) * (plain + full))
            for (dst, full), b, e in zip(topo.sync_plan, bounds, bounds[1:])
            if b < e]


class _GatherPlan:
    """One image's combined gather when every in-edge contributes:
    the local masters and their sender column, ``remote`` (the image's
    ``gather_order``) and, per master node, a batch of static read-only
    columns that only this superstep's accumulators join (DESIGN.md
    §15)."""

    __slots__ = ("local", "senders", "remote", "batches")

    def __init__(self, topo, kernel, node: int):
        self.local = np.flatnonzero(topo.has_in & topo.is_master)
        self.senders = np.broadcast_to(np.int64(node), self.local.size)
        self.local.flags.writeable = False
        remote = self.remote = topo.gather_order
        dsts, gids = topo.master_node[remote], topo.gids[remote]
        # Every record has an in-edge: ``folded`` is its in-degree.
        folded = topo.in_counts[remote]
        gids.flags.writeable = folded.flags.writeable = False
        size = BYTES_PER_VID + kernel.acc_nbytes
        self.batches = [
            ((int(dsts[b]), MessageKind.GATHER), b, e, gids[b:e],
             np.broadcast_to(np.int64(size), e - b), folded[b:e],
             (e - b) * size)
            for b, e in (_runs(dsts) if remote.size else ())]


def _recall(st: _NodeState, exchange: str, keys: list, shape: tuple):
    """The layout ``st`` derived from its last ``exchange`` inbox if
    this one has the same key columns (the same objects, in order) and
    per-batch scalars ``shape``, else ``None``."""
    held = st.layouts.get(exchange)
    if held is None or held[1] != shape or len(held[0]) != len(keys):
        return None
    return held[2] if all(map(operator.is_, held[0], keys)) else None


def _remember(st: _NodeState, exchange: str, keys: list, shape: tuple,
              layout) -> bool:
    """Keep ``layout`` as ``exchange``'s (the latest only) if every key
    column is a read-only array: held here, its id is not reused, and
    what was derived from it stays true.  Returns whether it was kept."""
    if not all(isinstance(col, np.ndarray) and not col.flags.writeable
               for col in keys):
        return False
    st.layouts[exchange] = (keys, shape, layout)
    return True


def _in_edges(topo, sel: np.ndarray):
    """The in-edges into the ``sel`` positions: ``slice(None)`` when
    that is every in-edge (a dense frontier gathers nothing)."""
    if (topo.has_in & ~sel).any():
        return np.flatnonzero(sel[topo.in_dst])
    return slice(None)


def _edge_count(topo, esel) -> int:
    """How many in-edges an :func:`_in_edges` selection holds."""
    return topo.in_dst.size if isinstance(esel, slice) else esel.size


def _runs(keys: np.ndarray):
    """``(start, stop)`` of every run of equal keys in a sorted column."""
    bounds = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    return zip([0, *bounds], [*bounds, keys.size])


def top_masters(gids: np.ndarray, values: np.ndarray, k: int) -> list[tuple]:
    """The K ``(value, gid)`` pairs with the largest values among one
    node's masters (their ``gids`` and committed ``values``),
    best-first, ties toward the lower gid."""
    if values.dtype.kind in "fi" and 0 < k < values.size:
        # Only a value at least the K-th largest can rank: keep those
        # (ties included), sort only them.  NaN sorts last, as in the
        # sort; fewer than K non-NaN values keep everything.
        neg = -values
        kth = np.partition(neg, k - 1)[k - 1]
        if kth == kth:
            keep = np.flatnonzero(neg <= kth)
            gids, values = gids[keep], values[keep]
    order = np.lexsort((gids, -values))[:k]
    return list(zip(values[order].tolist(), gids[order].tolist()))


def _stage_layout(st: _NodeState, batches: list) -> tuple:
    """What staging derives from a sync inbox's positions, gids and
    kinds once the gid check passes: the hit mask, the positions, the
    last-record-wins selection if one repeats (else ``None``), and the
    full-state records' indices and positions."""
    pos, gids = (np.concatenate([getattr(batch, name) for batch in batches],
                                dtype=np.int64)
                 for name in ("positions", "gids"))
    try:
        stale = not np.array_equal(st.topo.gids[pos], gids)
    except IndexError:
        stale = True
    if stale:
        raise EngineError(
            f"node {st.node}: a sync batch's positions do not hold "
            f"its gids")
    full = np.repeat([batch.full_state for batch in batches],
                     [batch.record_count for batch in batches])
    hit = np.zeros(st.topo.n, dtype=bool)
    hit[pos] = True
    keep = None
    if np.count_nonzero(hit) < pos.size:
        # A stable sort keeps arrival order within each position's run;
        # the last record of a run wins.
        order = np.argsort(pos, kind="stable")
        keep = order[np.r_[pos[order[1:]] != pos[order[:-1]], True]]
        pos, full = pos[keep], full[keep]
    full = np.flatnonzero(full)
    return hit, pos, keep, full, pos[full]


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
        if not sel.any():
            return 0, 0, 0
        esel = _in_edges(topo, sel)
        acc, has = self.kernel.edge_fold(topo, st.values, esel)
        elided = self._master_compute(st, sel, acc, has, ctx, outbox)
        return _edge_count(topo, esel), int(sel.sum()), elided

    def vertex_gather(self, st: _NodeState, outbox: dict) -> int:
        """One node's vertex-cut gather phase (phase 1).

        Local partials go to ``st.partials``; remote ones accumulate
        into per-master gather batches.  Every kernel declares a
        combiner, so the combined batches carry their pre-combine
        contribution counts (``folded``), and with combining off the
        raw per-edge contributions ship in a RawGatherBatch instead
        (DESIGN.md §15); when every in-edge contributes, they ship the
        state's :class:`_GatherPlan`.  Returns the number of edges folded.
        """
        kernel = self.kernel
        node = st.node
        topo = st.topo
        st.partials = []
        sel = st.active & topo.has_in
        esel = _in_edges(topo, sel)
        seg, contrib = kernel.edge_contrib(topo, st.values, esel)
        acc = kernel.init_acc(topo.n)
        kernel.fold_into(acc, seg, contrib)
        if self.combining and isinstance(esel, slice) \
                and seg.size == topo.in_dst.size:
            plan = st.gather_plan
            if plan is None:
                plan = st.gather_plan = _GatherPlan(topo, kernel, node)
            if plan.local.size:
                st.partials.append((plan.local, plan.senders,
                                    acc[plan.local]))
            accs = acc[plan.remote]
            for key, b, e, gids, sizes, folded, nbytes in plan.batches:
                outbox[key] = GatherBatch.from_columns(
                    gids, accs[b:e], sizes, folded, nbytes=nbytes)
            return topo.in_dst.size
        # Every in-edge contributed: the counts are the image's.
        cnt = topo.in_counts if seg.size == topo.in_dst.size \
            else np.bincount(seg, minlength=topo.n)
        local = np.flatnonzero(sel & topo.is_master)
        if local.size:
            st.partials.append(
                (local, np.full(local.size, node, dtype=np.int64),
                 acc[local]))
        # The remote records in (master node, position) order, read off
        # the image's static order: no per-superstep sort.
        remote = topo.gather_order[sel[topo.gather_order]]
        if remote.size:
            dsts, gids = topo.master_node[remote], topo.gids[remote]
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
            else:
                accs, sizes = acc[remote], np.full(remote.size, rec_size)
            for b, e in _runs(dsts):
                key = (int(dsts[b]), MessageKind.GATHER)
                if self.combining:
                    outbox[key] = GatherBatch.from_columns(
                        gids[b:e], accs[b:e], sizes[b:e], folded_all[b:e],
                        nbytes=(e - b) * rec_size)
                else:
                    outbox[key] = RawGatherBatch.from_columns(
                        gids[b:e].tolist(),
                        counts_all[b:e].tolist(),
                        flat[coff[b]:coff[e]].tolist(),
                        [rec_size] * (e - b),
                        phys_all[b:e].tolist())
        return _edge_count(topo, esel)

    def intake_partials(self, st: _NodeState, frames: list) -> None:
        """Stage a node's whole gather inbox — ``(sender, batch)`` in
        arrival order — for the master fold: one concatenation and one
        gid lookup, which an inbox of the last one's senders and gid
        columns reuses.  Raw batches (combining off) fold per batch."""
        if not frames:
            return
        kernel = self.kernel
        srcs, batches = zip(*frames)
        accs = np.concatenate([kernel.fold_groups(
            np.asarray(batch.counts, dtype=np.int64), batch.contribs)
            if isinstance(batch, RawGatherBatch) else batch.accs
            for batch in batches])
        keys = [batch.gids for batch in batches]
        layout = _recall(st, "intake", keys, srcs)
        if layout is None:
            # A replica does not know its master's position: look it up.
            pos = st.topo.translate(np.concatenate(
                [np.asarray(gids, dtype=np.int64) for gids in keys]))
            sender = np.repeat(np.array(srcs, dtype=np.int64),
                               [batch.record_count for batch in batches])
            layout = pos, sender
            if _remember(st, "intake", keys, srcs, layout):
                pos.flags.writeable = sender.flags.writeable = False
        st.partials.append((*layout, accs))

    def master_fold_apply(self, st: _NodeState, ctx,
                          outbox: dict) -> tuple[int, int]:
        """One node's vertex-cut apply phase (phase 2): masters fold
        partials in (position, sender) order — the vector image of the
        scalar per-vertex sort-by-sender fold.  Returns
        ``(vertices_computed, syncs_elided)``.  Partials of the last
        fold's columns, all for computing masters, reuse its order."""
        kernel = self.kernel
        topo = st.topo
        sel = st.active & topo.is_master
        acc = kernel.init_acc(topo.n)
        has = np.zeros(topo.n, dtype=bool)
        if st.partials:
            keys = [col for part in st.partials for col in part[:2]]
            accs = np.concatenate([a for _, _, a in st.partials])
            layout = _recall(st, "fold", keys, ())
            if layout is None or not sel[layout[0]].all():
                pos = np.concatenate(keys[::2])
                src = np.concatenate(keys[1::2])
                keep = sel[pos]
                pos, src, accs = pos[keep], src[keep], accs[keep]
                order = np.lexsort((src, pos))
                layout = pos, order, pos[order]
                if keep.all():
                    _remember(st, "fold", keys, (), layout)
            pos, order, spos = layout
            kernel.fold_into(acc, spos, accs[order])
            has[pos] = True
        elided = self._master_compute(st, sel, acc, has, ctx, outbox)
        return int(sel.sum()), elided

    def _master_compute(self, st: _NodeState, sel: np.ndarray,
                        acc: np.ndarray, has: np.ndarray, ctx,
                        outbox: dict) -> int:
        """Apply + stage + build syncs for one node's computed masters;
        returns the number of sync records elided.  When every master
        computes and nothing is elided, the batches are the image's
        :class:`_DensePlan` with this superstep's values; otherwise one
        pass over the flat plan (``topo.sync_pos``) picks and gathers
        every record, and each ``(dst, kind)`` batch is a slice of those
        columns."""
        kernel = self.kernel
        topo = st.topo
        old = st.values
        new = kernel.apply(topo.gids, old, acc, has, ctx)
        act = kernel.activates(topo.gids, old, new, ctx)
        stay = kernel.stays_active(topo.gids, old, new, ctx)
        st.pend_mask |= sel
        np.copyto(st.pend_values, new, where=sel)
        np.copyto(st.pend_activates, act, where=sel)
        np.copyto(st.pend_self_active, stay, where=sel)
        # ``sel`` holds masters only: as many as the image has is all.
        dense = np.count_nonzero(sel) == np.count_nonzero(topo.is_master)
        every = dense and act.all()
        # Elision needs ``~act``: nothing to elide when every copy
        # activates.
        noop = ~act & ~st.last_activates & (new == old) \
            if self.sync_elision and not every else None
        if dense and (noop is None or not (noop & sel).any()):
            plan = st.plan
            if plan is None or plan.selfish != self.selfish_opt:
                plan = st.plan = _DensePlan(topo, kernel, self.selfish_opt)
            values = new[plan.pos]
            flags = None if every and stay.all() else \
                act[plan.pos] + 2 * (stay[plan.pos] & plan.mirror)
            for key, full, b, e, gids, peers, sizes, const, nbytes in \
                    plan.batches:
                outbox[key] = SyncBatch.from_columns(
                    gids, peers, values[b:e],
                    const if flags is None else flags[b:e], sizes,
                    full_state=full, nbytes=nbytes)
            return 0
        pos, mirror = topo.sync_pos, topo.sync_mirror
        pick = sel[pos]
        if self.selfish_opt:
            pick &= ~topo.selfish[pos]
        elided = 0
        if noop is not None and noop.any():
            mirror_elide = noop & (stay == st.mirror_self_active)
            before = int(np.count_nonzero(pick))
            pick &= ~np.where(mirror, mirror_elide[pos], noop[pos])
            elided = before - int(np.count_nonzero(pick))
        idx = np.flatnonzero(pick)
        keep, mirror = pos[idx], mirror[idx]
        # Flag bits mirror the scalar append calls exactly: plain
        # syncs carry only the activates bit.
        gids, peers, values = topo.gids[keep], topo.sync_peer[idx], new[keep]
        flags = act[keep] + 2 * (stay[keep] & mirror)
        plain = BYTES_PER_VID + kernel.value_nbytes + 1
        sizes = np.where(mirror, plain + 1, plain)
        bounds = np.searchsorted(idx, topo.sync_ptr).tolist()
        for (dst, is_mirror), b, e in zip(topo.sync_plan, bounds,
                                          bounds[1:]):
            if b < e:
                kind = (MessageKind.MIRROR_SYNC if is_mirror
                        else MessageKind.SYNC)
                outbox[(dst, kind)] = SyncBatch.from_columns(
                    gids[b:e], peers[b:e], values[b:e], flags[b:e],
                    sizes[b:e], full_state=is_mirror,
                    nbytes=(e - b) * (plain + 1 if is_mirror else plain))
        return elided

    # -- receive staging ----------------------------------------------

    def stage_inbox(self, st: _NodeState, batches: list) -> None:
        """Stage a node's whole sync inbox (arrival order) with one gid
        check and one scatter per column at the positions the records
        carry (kernel programs never mutate edges).  A stale position
        anywhere raises before anything is staged; a repeated one (a
        duplicated or split batch) keeps its last record.  An inbox of
        the last one's position and gid columns reuses its layout."""
        if not batches:
            return
        keys = [col for batch in batches
                for col in (batch.positions, batch.gids)]
        shape = tuple(batch.full_state for batch in batches)
        layout = _recall(st, "stage", keys, shape)
        if layout is None:
            layout = _stage_layout(st, batches)
            _remember(st, "stage", keys, shape, layout)
        hit, pos, keep, full, full_pos = layout
        values, flags = (np.concatenate(
            [getattr(batch, name) for batch in batches], dtype=dtype)
            for name, dtype in (("values", st.pend_values.dtype),
                                ("flags", np.int64)))
        if keep is not None:
            values, flags = values[keep], flags[keep]
        st.pend_mask |= hit
        st.pend_values[pos] = values
        st.pend_activates[pos] = flags & SyncBatch.FLAG_ACTIVATES
        if full.size:
            st.pend_self_active[full_pos] = \
                flags[full] & SyncBatch.FLAG_SELF_ACTIVE

    # -- barrier commit ------------------------------------------------

    def commit_stage1(self, st: _NodeState) -> dict:
        """Scatter the staged activations along local out-edges.

        Local masters are marked in ``next_active``; remote ones come
        back as one :class:`ActivateBatch` per master node, gids unique
        and sorted (the scalar path's globally sorted signal set): the
        hit copies in the image's static (master node, gid) order,
        ``act_order``, so nothing is sorted here.  On a dense frontier
        every out-edge fires and the hit mask is the image's
        ``out_hit``.  Abortable: no committed column is touched before
        :meth:`finalize_commit`, so a backend that loses a worker
        mid-commit can still export the previous commit from survivors.
        """
        topo = st.topo
        outbox: dict = {}
        sources = st.pend_mask & st.pend_activates
        if not (sources.any() and topo.out_src.size):
            return outbox
        if (topo.has_out & ~sources).any():
            hit = np.zeros(topo.n, dtype=bool)
            hit[topo.out_dst[sources[topo.out_src]]] = True
        else:
            hit = topo.out_hit
        st.next_active |= hit & topo.is_master
        rem = topo.act_order[hit[topo.act_order]]
        if rem.size:
            dsts, gids = topo.master_node[rem], topo.gids[rem]
            for b, e in _runs(dsts):
                outbox[(int(dsts[b]), MessageKind.ACTIVATE)] = \
                    ActivateBatch(gids[b:e])
        return outbox

    def apply_activations(self, st: _NodeState, gids) -> None:
        """Mark remote activation signals received for local masters."""
        st.next_active[st.topo.translate(gids)] = True

    def finalize_commit(self, st: _NodeState, lg, iteration: int) -> list:
        """Commit pending values and finalise activity — the point of
        no return of the superstep, and the only writer of the
        committed columns within it.

        Returns the master gids whose activity now differs from what
        their replicas believe (vertex-cut broadcast backlog; always
        empty under edge-cut).
        """
        topo = st.topo
        pm = st.pend_mask
        if not (pm.any() or st.next_active.any()):
            return []
        np.copyto(st.values, st.pend_values, where=pm)
        np.copyto(st.last_activates, st.pend_activates, where=pm)
        np.copyto(st.last_update, iteration, where=pm)
        # Masters and mirrors shadow the self-sustained activity.
        np.copyto(st.mirror_self_active, st.pend_self_active,
                  where=pm & topo.shadow)
        # A master touched this superstep is active iff it stays active
        # by itself or a neighbour activated it.
        touched = (pm | st.next_active) & topo.is_master
        np.copyto(st.active, (pm & st.pend_self_active) | st.next_active,
                  where=touched)
        stale: list = []
        if not self.is_edge_cut:
            stale = topo.gids[touched & (st.active
                                         != st.replicas_known_active)
                              ].tolist()
        # Reset the per-superstep staging; value/flag staging
        # arrays need no clearing — every read is pend_mask-gated.
        st.pend_mask[:] = False
        st.next_active[:] = False
        return stale


class VectorizedExecutor:
    """The simulator's cache of :class:`_NodeState` objects for one
    engine (the engine's own superstep drivers run the states)."""

    def __init__(self, engine, kernel):
        self.engine = engine
        self.proto = ArrayNodeProtocol(
            kernel, engine.is_edge_cut,
            sync_elision=engine._sync_elision,
            combining=engine._combining)
        #: node -> _NodeState, cached across supersteps; a state is
        #: valid while its topology object is still the graph's cached
        #: one (a structural write outside the commit invalidates the
        #: written node's topology, which makes :meth:`state` rebuild
        #: that node's state over its columns).
        self._states: dict[int, _NodeState] = {}
        #: States built; the ``soa.state_builds`` counter.
        self.state_builds = 0

    # -- state cache ---------------------------------------------------

    def rollback(self) -> None:
        """Clear every state's uncommitted staging; the committed
        columns stay."""
        for st in self._states.values():
            st.abort()

    def valid_state(self, node: int) -> _NodeState | None:
        """The node's cached state if its image is still the graph's,
        else ``None``.  Peeks: only :meth:`state` builds."""
        st = self._states.get(node)
        image = self.engine.local_graphs[node].cached_topology
        return st if st is not None and st.topo is image else None

    def state(self, node: int) -> _NodeState:
        """The node's round object, (re)built over the graph's columns
        when its image was invalidated since the last touch."""
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

"""The sorting activation scatter, the sorting gather, the per-batch
intakes, the sorting master fold and the per-batch flush: the oracles
of ``ArrayNodeProtocol.commit_stage1`` / ``vertex_gather`` /
``intake_partials`` / ``master_fold_apply`` / ``apply_activations`` in
``repro.engine.vectorized`` and of ``Network.send_all`` (imported by
tests only).

:func:`commit_stage1` de-duplicates the remote activation targets with a
sort every superstep; :func:`vertex_gather` re-counts the contributions
with ``bincount`` and orders the remote records with a stable
``argsort`` of their master nodes; :func:`intake` and :func:`activate`
take a node's inbox one batch at a time, one gid lookup each;
:func:`master_fold_apply` sorts the partials every superstep; and
:func:`send_each` ships an outbox as one :func:`send` per batch —
``Network.send`` as it was, charging every counter per message.  (The
old code verbatim, but that the protocol steps take the protocol as an
argument and the transport the network.)
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import Message, MessageKind, record_count
from repro.engine.messages import ActivateBatch, GatherBatch, RawGatherBatch
from repro.engine.vectorized import _in_edges
from repro.utils.arrays import sorted_unique
from repro.utils.sizing import BYTES_PER_MSG_HEADER, BYTES_PER_VID


def _runs(keys: np.ndarray):
    """``(start, stop)`` of every run of equal keys in a sorted column."""
    bounds = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return zip(bounds, np.r_[bounds[1:], keys.size])


def commit_stage1(proto, st) -> dict:
    """Scatter the staged activations along local out-edges.

    Local masters are marked in ``next_active``; remote ones come
    back as one :class:`ActivateBatch` per master node, gids unique
    and sorted (the scalar path's globally sorted signal set).
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
            dcol, gcol = np.divmod(sorted_unique(
                topo.master_node[rem] * stride + topo.gids[rem]),
                stride)
            for b, e in _runs(dcol):
                outbox[(int(dcol[b]), MessageKind.ACTIVATE)] = \
                    ActivateBatch(gcol[b:e])
    return outbox


def vertex_gather(proto, st, outbox: dict) -> int:
    """One node's vertex-cut gather phase (phase 1): local partials to
    ``st.partials``, remote ones into per-master gather batches."""
    kernel = proto.kernel
    node = st.node
    topo = st.topo
    st.partials = []
    sel = st.active & topo.has_in
    seg, contrib = kernel.edge_contrib(topo, st.values,
                                       _in_edges(topo, sel))
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
        if not proto.combining:
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
            if proto.combining:
                outbox[key] = GatherBatch.from_columns(
                    topo.gids[grp], acc[grp],
                    np.full(grp.size, rec_size), folded_all[b:e])
            else:
                outbox[key] = RawGatherBatch.from_columns(
                    topo.gids[grp].tolist(),
                    counts_all[b:e].tolist(),
                    flat[coff[b]:coff[e]].tolist(),
                    [rec_size] * grp.size,
                    phys_all[b:e].tolist())
    return int(topo.in_counts[sel].sum())


def intake_partials(proto, st, src: int, batch) -> None:
    """Stage one received gather batch for the master fold."""
    kernel = proto.kernel
    if isinstance(batch, RawGatherBatch):
        accs = kernel.fold_groups(
            np.asarray(batch.counts, dtype=np.int64), batch.contribs)
    else:
        accs = batch.accs
    # A replica does not know its master's position: look it up.
    pos = st.topo.translate(batch.gids)
    st.partials.append(
        (pos, np.full(pos.size, src, dtype=np.int64), accs))


def intake(proto, st, frames: list) -> None:
    """One :func:`intake_partials` per ``(sender, batch)``, in arrival
    order."""
    for src, batch in frames:
        intake_partials(proto, st, src, batch)


def master_fold_apply(proto, st, ctx, outbox: dict) -> tuple[int, int]:
    """The master fold that sorts its partials by (position, sender)
    every superstep, dropping those of masters that do not compute."""
    kernel = proto.kernel
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
    elided = proto._master_compute(st, sel, acc, has, ctx, outbox)
    return int(sel.sum()), elided


def activate(st, columns: list) -> None:
    """Mark each received activation gid column, one at a time."""
    for gids in columns:
        st.next_active[st.topo.translate(gids)] = True


def _record(totals, msg: Message) -> None:
    """``TrafficStats.record``: one message into the lifetime totals."""
    records = record_count(msg.payload)
    wire = msg.nbytes + BYTES_PER_MSG_HEADER
    totals.msgs_by_kind[msg.kind] += records
    totals.bytes_by_kind[msg.kind] += wire
    totals.batches_by_kind[msg.kind] += 1
    totals.total_msgs += records
    totals.total_bytes += wire
    totals.total_batches += 1


def send(net, msg: Message) -> None:
    """Enqueue a message; drops it if the destination has crashed."""
    if msg.src == msg.dst:
        # Local delivery is free in the real systems too: co-located
        # master/replica pairs share memory.  Still delivered so the
        # engine code stays uniform, but not counted as traffic.
        net._queues.append(msg.dst, msg)
        return
    if not net._is_alive(msg.dst):
        net.metrics.inc("net.dropped_msgs", record_count(msg.payload))
        net.metrics.inc("net.dropped_bytes",
                        msg.nbytes + BYTES_PER_MSG_HEADER)
        return
    if net.fault_injector is not None:
        if (net.record_fault_injector is not None
                and getattr(msg.payload, "is_columnar", False)):
            _send_with_record_faults(net, msg)
            return
        records = record_count(msg.payload)
        verdict = net.fault_injector(msg)
        if verdict == "drop":
            net.metrics.inc("net.chaos_dropped_msgs", records)
            net.metrics.inc("net.chaos_dropped_bytes",
                            msg.nbytes + BYTES_PER_MSG_HEADER)
            return
        delayed = verdict == "delay"
        if delayed:
            net.metrics.inc("net.chaos_delayed_msgs", records)
        _enqueue(net, msg, delayed=delayed)
        if verdict == "duplicate":
            # A retransmission: both copies cross the wire, and each
            # delivery must own an independent payload — a consumer
            # mutating one copy of a duplicated message must not
            # corrupt the other in-flight delivery.
            net.metrics.inc("net.chaos_duplicated_msgs", records)
            _enqueue(net, net._clone_message(msg), delayed=delayed)
        return
    _enqueue(net, msg)


def _enqueue(net, msg: Message, delayed: bool = False) -> None:
    """Queue one physical message and charge all counters."""
    (net._delayed if delayed else net._queues).append(msg.dst, msg)
    wire_bytes = msg.nbytes + BYTES_PER_MSG_HEADER
    records = record_count(msg.payload)
    net.step_bytes[msg.src][msg.dst] += wire_bytes
    net.step_msgs[msg.src][msg.dst] += records
    _record(net.totals, msg)
    net.metrics.inc("net.sent_msgs", records)
    net.metrics.inc("net.sent_batches")
    net.metrics.inc("net.sent_bytes", wire_bytes)
    net.metrics.inc(f"net.msgs.{msg.kind.value}", records)
    net.metrics.inc(f"net.bytes.{msg.kind.value}", wire_bytes)
    pre = getattr(msg.payload, "precombine_record_count", None)
    if pre is not None:
        phys = msg.payload.physical_record_count
        net.combine_pre += pre
        net.combine_phys += phys
        net.metrics.inc(f"net.combine.records_pre.{msg.kind.value}",
                        pre)
        net.metrics.inc(f"net.combine.records_phys.{msg.kind.value}",
                        phys)


def _send_with_record_faults(net, msg: Message) -> None:
    """Split a columnar batch into per-verdict sub-batches."""
    payload = msg.payload
    injector = net.record_fault_injector
    keep: list[int] = []
    dup: list[int] = []
    delay: list[int] = []
    dropped = 0
    dropped_bytes = 0
    for i in range(payload.record_count):
        verdict = injector(msg, i)
        if verdict == "drop":
            dropped += 1
            dropped_bytes += payload.record_nbytes(i)
        elif verdict == "duplicate":
            keep.append(i)
            dup.append(i)
        elif verdict == "delay":
            delay.append(i)
        else:
            keep.append(i)
    if dropped:
        net.metrics.inc("net.chaos_dropped_msgs", dropped)
        net.metrics.inc("net.chaos_dropped_bytes", dropped_bytes)
    if dup:
        net.metrics.inc("net.chaos_duplicated_msgs", len(dup))
    if delay:
        net.metrics.inc("net.chaos_delayed_msgs", len(delay))
    if not dropped and not dup and not delay:
        _enqueue(net, msg)  # fast path: whole batch verdicted deliver
        return
    if keep:
        _enqueue(net, net._sub_batch(msg, keep))
    if dup:
        _enqueue(net, net._sub_batch(msg, dup))
    if delay:
        _enqueue(net, net._sub_batch(msg, delay), delayed=True)


def send_each(net, src: int, outbox: dict) -> None:
    """Ship a node's accumulated batches, one message per pair."""
    for (dst, kind), batch in outbox.items():
        send(net, Message(kind, src, dst, batch, batch.nbytes()))

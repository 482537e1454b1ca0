"""The per-key sync build and the per-batch sync staging: the oracles of
``ArrayNodeProtocol._master_compute`` and ``ArrayNodeProtocol.
stage_inbox`` in ``repro.engine.vectorized`` (imported by tests only),
and the one-mask-per-key plan split, the oracle of
``repro.engine.soa.sync_columns``.

:func:`master_compute` walks ``topo.sync_plan`` one ``(dst, kind)`` key
at a time — a mask, a selfish filter and an elision filter per key —
and :func:`stage_batch` stages one received batch with its own gid
check and scatters; :func:`stage_inbox` calls it once per batch in
arrival order, so a repeated position keeps its last record.  (The old
code verbatim, but that it takes the protocol as an argument.)
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import MessageKind
from repro.engine.messages import SyncBatch
from repro.errors import EngineError
from repro.utils.sizing import BYTES_PER_VID


def master_compute(proto, st, sel: np.ndarray, acc: np.ndarray,
                   has: np.ndarray, ctx, outbox: dict) -> int:
    """Apply + stage + build syncs for one node's computed masters;
    returns the number of sync records elided."""
    kernel = proto.kernel
    topo = st.topo
    old = st.values
    new = kernel.apply(topo.gids, old, acc, has, ctx)
    act = kernel.activates(topo.gids, old, new, ctx)
    stay = kernel.stays_active(topo.gids, old, new, ctx)
    st.pend_mask |= sel
    st.pend_values[sel] = new[sel]
    st.pend_activates[sel] = act[sel]
    st.pend_self_active[sel] = stay[sel]
    if proto.sync_elision:
        noop = ~act & ~st.last_activates & (new == old)
        mirror_elide = noop & (stay == st.mirror_self_active)
    else:
        noop = mirror_elide = None
    elided = 0
    plain_size = BYTES_PER_VID + kernel.value_nbytes + 1
    mirror_size = BYTES_PER_VID + kernel.value_nbytes + 2
    at = 0
    for (dst, is_mirror), positions in topo.sync_plan.items():
        # ``pick`` indexes the key's slice of both the plan and
        # ``sync_peer`` (each copy's position on ``dst``).
        peers = topo.sync_peer[at:at + positions.size]
        at += positions.size
        pick = np.flatnonzero(sel[positions])
        if proto.selfish_opt and pick.size:
            pick = pick[~topo.selfish[positions[pick]]]
        if noop is not None and pick.size:
            elide = mirror_elide if is_mirror else noop
            kept = pick[~elide[positions[pick]]]
            elided += int(pick.size - kept.size)
            pick = kept
        if not pick.size:
            continue
        keep = positions[pick]
        # Flag bits mirror the scalar append calls exactly: plain
        # syncs carry only the activates bit.
        if is_mirror:
            outbox[(dst, MessageKind.MIRROR_SYNC)] = \
                SyncBatch.from_columns(
                    topo.gids[keep], peers[pick], new[keep],
                    act[keep] + 2 * stay[keep],
                    np.full(keep.size, mirror_size), full_state=True)
        else:
            outbox[(dst, MessageKind.SYNC)] = SyncBatch.from_columns(
                topo.gids[keep], peers[pick], new[keep],
                act[keep].astype(np.int64),
                np.full(keep.size, plain_size))
    return elided


def stage_batch(st, batch: SyncBatch) -> None:
    """Stage every record of one received sync batch at the positions
    it carries.  A position holding another gid raises before anything
    of *this* batch is staged."""
    pos = batch.positions
    try:
        stale = not np.array_equal(st.topo.gids[pos], batch.gids)
    except IndexError:
        stale = True
    if stale:
        raise EngineError(
            f"node {st.node}: a sync batch's positions do not hold "
            f"its gids")
    st.pend_mask[pos] = True
    st.pend_values[pos] = batch.values
    flags = batch.flags
    st.pend_activates[pos] = (flags & SyncBatch.FLAG_ACTIVATES) != 0
    if batch.full_state:
        st.pend_self_active[pos] = \
            (flags & SyncBatch.FLAG_SELF_ACTIVE) != 0


def stage_inbox(st, batches: list) -> None:
    """One :func:`stage_batch` per batch, in arrival order."""
    for batch in batches:
        stage_batch(st, batch)


def sync_columns(to, master_pos, peer_pos) -> tuple[dict, np.ndarray]:
    """A node's ``sync_plan`` (a dict, keys in first-appearance order)
    and ``sync_peer`` from one row per (master, copy) pair in send
    order, one mask pass per ``(node, is_mirror)`` key."""
    to = np.asarray(to)
    keys = dict.fromkeys(to.tolist())
    masks = [to == key for key in keys]
    return ({(key >> 1, bool(key & 1)): np.asarray(master_pos)[mask]
             for key, mask in zip(keys, masks)},
            np.concatenate([np.zeros(0, dtype=np.int64),
                            *(np.asarray(peer_pos)[mask] for mask in masks)]))

"""Shared machinery for Rebirth and Migration recovery (Section 5).

Both strategies decompose into the paper's three phases:

* **Reloading** — surviving nodes decide what they must recover with
  array masks over their SoA image (fully decentralised: the needed
  location knowledge is in the master metadata every master and mirror
  already holds, and in the image's ``sync_plan`` / ``sync_peer``), then
  pack the selected rows into columnar
  :class:`~repro.engine.messages.RecoveryBatch`\\ es (:func:`pack_rows`);
  no slot outside the selection is read;
* **Reconstruction** — received rows are written positionally into the
  destination's vertex array: a reborn node is built whole, SoA image and
  FT census included, in one pass (:func:`reborn_graph`), and single
  copies are appended to a live node (:func:`place_rows`);
* **Replay** — activation operations stamped with the last committed
  iteration are re-executed, and selfish vertices' dynamic state is
  recomputed from their neighbors, both over unique sorted positions.

The helpers here are strategy-agnostic; the strategy modules orchestrate
them and do the strategy-specific accounting.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.cluster.network import Message, MessageKind
from repro.engine.construction import ft_census, stamp_slots, sync_columns
from repro.engine.local_graph import LocalGraph
from repro.engine.messages import RecoveryBatch, csr_ptr, csr_rows
from repro.engine.soa import NodeTopology
from repro.engine.state import MasterMeta, Role, VertexSlot
from repro.errors import EngineError, UnrecoverableFailureError
from repro.utils.rng import SeededRng
from repro.utils.sizing import BYTES_PER_VID

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import Engine

_B = RecoveryBatch


def last_committed_iteration(engine: "Engine") -> int:
    """The iteration whose barrier last committed successfully."""
    return engine.iteration - 1


def surviving_recoverer(meta: MasterMeta, failed: set[int]) -> int | None:
    """The node leading recovery of a vertex whose master crashed.

    Mirror ids order the mirrors; the surviving mirror with the lowest
    id does the work so the others stay silent (Section 5.3.1).
    Returns ``None`` when every mirror crashed too.
    """
    for node in meta.mirror_nodes:
        if node not in failed:
            return node
    return None


def _orphaned_mirrors(topo, failed: set[int]) -> np.ndarray:
    """Positions of the mirrors whose master sat on a failed node."""
    return np.flatnonzero(topo.is_mirror
                          & np.isin(topo.master_node, sorted(failed)))


def leading_mirrors(engine: "Engine", node: int, failed: set[int]
                    ) -> tuple[np.ndarray, list[MasterMeta]]:
    """The mirrors on ``node`` leading the recovery of a master lost
    with ``failed`` (:func:`surviving_recoverer`): their positions,
    ascending, and metadata.  A mask over the node's image picks the
    candidates (:func:`_orphaned_mirrors`) and only their slots are
    read."""
    lg = engine.local_graphs[node]
    candidates = _orphaned_mirrors(lg.topology(), failed)
    metas = [lg.slots[p].meta for p in candidates.tolist()]
    lead = [surviving_recoverer(meta, failed) == node for meta in metas]
    return (candidates[np.array(lead, dtype=bool)],
            [meta for meta, keep in zip(metas, lead) if keep])


def _committed_rows(engine: "Engine", lg: LocalGraph, pos: np.ndarray):
    """``gid, value, active, last_activates, mirror_self_active,
    replicas_known_active, last_update_iter, is_master, selfish,
    master_node`` of the copies at positions ``pos`` of ``lg``, one
    column each: from the node's committed columns when it holds a valid
    column state, else from those slots alone (the multiprocessing
    backend's parent image holds no column state)."""
    vec = engine._vec
    st = vec.valid_state(lg.node_id) if vec is not None else None
    if st is not None and not st.activity_stale:
        topo = st.topo
        return (topo.gids[pos], st.values[pos].tolist(), st.active[pos],
                st.last_activates[pos], st.mirror_self_active[pos],
                st.replicas_known_active[pos], st.last_update[pos],
                topo.is_master[pos], topo.selfish[pos],
                topo.master_node[pos])
    slots = [lg.slots[p] for p in pos.tolist()]

    def column(attr: str, dtype=bool) -> np.ndarray:
        return np.fromiter((getattr(s, attr) for s in slots), dtype,
                           len(slots))

    return (column("gid", np.int64), [s.value for s in slots],
            column("active"), column("last_activates"),
            column("mirror_self_active"), column("replicas_known_active"),
            column("last_update_iter", np.int64),
            np.fromiter((s.role is Role.MASTER for s in slots), bool,
                        len(slots)),
            column("selfish"), column("master_node", np.int64))


def pack_rows(engine: "Engine", node: int, pos: np.ndarray,
              roles: np.ndarray, dst: int,
              dst_pos: np.ndarray) -> RecoveryBatch:
    """The recovery batch ``node`` sends ``dst``: row *i* restores, at
    position ``dst_pos[i]`` there, a copy of role ``roles[i]`` of the
    vertex whose master — or, for a dead master, leading mirror — sits at
    ``pos[i]`` here.  A ``MASTER`` row is a dead master's full state,
    shipped by that mirror.

    Values and flags come from :func:`_committed_rows`; the metadata of
    master and mirror rows and a mirror's edge backup from the selected
    slots; a master's in-edges from the node's image; degrees from the
    graph.
    """
    lg = engine.local_graphs[node]
    rows = pos.size
    (gids, values, active, last_activates, self_active, replicas_known,
     last_update, is_master, selfish, master_node) = _committed_rows(
        engine, lg, pos)
    # A copy believes what the master last broadcast: the master's
    # ``replicas_known_active``; on a mirror, its own flag.
    known = np.where(is_master, replicas_known, active)
    flags = (np.where(roles == _B.MASTER, self_active, known) * _B.FLAG_ACTIVE
             | last_activates * _B.FLAG_LAST_ACTIVATES
             | self_active * _B.FLAG_SELF_ACTIVE
             | known * _B.FLAG_KNOWN_ACTIVE)

    # Master and mirror rows carry the metadata (Section 4.2).
    with_meta = np.flatnonzero(roles != _B.REPLICA)
    slots = [lg.slots[p] for p in pos[with_meta].tolist()]
    metas = [slot.meta for slot in slots]
    replicas = [meta.replica_positions for meta in metas]
    mirror_id = np.full(rows, -1, dtype=np.int64)
    mirror_id[roles == _B.MIRROR] = [
        meta.mirror_nodes.index(dst)
        for meta, role in zip(metas, roles[with_meta].tolist())
        if role == _B.MIRROR]
    master_position = np.full(rows, -1, dtype=np.int64)
    master_position[with_meta] = [meta.master_position for meta in metas]
    replica_count = np.zeros(rows, dtype=np.int64)
    replica_count[with_meta] = [len(r) for r in replicas]
    mirror_count = np.zeros(rows, dtype=np.int64)
    mirror_count[with_meta] = [len(meta.mirror_nodes) for meta in metas]
    total_replicas = int(replica_count.sum())

    # Edge-cut: the master's in-edges ride with its full state
    # (Section 4.3), in the master node's positions — the image's CSR
    # for a master here, the mirror's backup for a dead master.
    edge_count = np.zeros(rows, dtype=np.int64)
    edges = [np.zeros(0, dtype=np.int64)] * 2 + [np.zeros(0)]
    if engine.is_edge_cut and with_meta.size:
        from_master = is_master[with_meta]
        own, backed = with_meta[from_master], with_meta[~from_master]
        backups = [slot.full_edges or () for slot, m in
                   zip(slots, from_master.tolist()) if not m]
        edge_count[backed] = [len(b) for b in backups]
        if own.size:
            topo = lg.topology()
            idx, edge_count[own] = csr_rows(csr_ptr(topo.in_counts), pos[own])
        edge_ptr = csr_ptr(edge_count)
        size = int(edge_ptr[-1])
        edges = [np.empty(size, dtype=np.int64),
                 np.empty(size, dtype=np.int64), np.empty(size)]
        if own.size:
            at, _ = csr_rows(edge_ptr, own)
            src = topo.in_src[idx]
            edges[0][at], edges[1][at], edges[2][at] = (
                topo.gids[src], src, topo.in_w[idx])
        triples = list(chain.from_iterable(backups))
        if triples:
            at, _ = csr_rows(edge_ptr, backed)
            for column, shipped in zip(edges, zip(*triples)):
                column[at] = shipped
    return RecoveryBatch(
        src_node=node, iteration=engine.iteration, gids=gids,
        positions=dst_pos, roles=roles, values=values, flags=flags,
        last_update=last_update,
        out_degree=engine.graph.out_degrees()[gids],
        in_degree=engine.graph.in_degrees()[gids], selfish=selfish,
        mirror_id=mirror_id, master_node=master_node,
        master_position=master_position,
        replica_ptr=csr_ptr(replica_count),
        replica_nodes=np.fromiter(chain.from_iterable(replicas), np.int64,
                                  total_replicas),
        replica_positions=np.fromiter(
            chain.from_iterable(r.values() for r in replicas), np.int64,
            total_replicas),
        mirror_ptr=csr_ptr(mirror_count),
        mirror_nodes=np.fromiter(
            chain.from_iterable(meta.mirror_nodes for meta in metas),
            np.int64, int(mirror_count.sum())),
        edge_ptr=csr_ptr(edge_count), edge_gids=edges[0],
        edge_positions=edges[1], edge_weights=edges[2])


def _row_slots(batch: RecoveryBatch, last_commit: int, ft_only: list,
               edge_cut: bool, in_edges: list | None = None, in_counts=None,
               out_edges: list | None = None,
               out_counts=None) -> list[VertexSlot]:
    """One slot per row of ``batch``, in row order (:func:`~repro.engine.
    construction.stamp_slots`), with the row's committed state: a master
    keeps the flag its replicas believe, masters and mirrors the
    self-sustained activity, edge-cut mirrors their master's in-edges;
    the update stamp is clamped to ``last_commit`` — a copy can never
    legitimately claim an update from an uncommitted iteration."""
    rows = len(batch)
    roles = batch.roles
    metas = _metas(batch)
    slots = stamp_slots(
        batch.gids.tolist(), [_B.ROLES[r] for r in roles.tolist()],
        batch.master_node.tolist(), batch.mirror_id.tolist(),
        batch.out_degree.tolist(), batch.in_degree.tolist(),
        batch.selfish.tolist(), ft_only, metas, in_edges or [],
        in_counts or [0] * rows, out_edges or [], out_counts or [0] * rows)
    flags = batch.flags
    known = (roles != _B.MASTER) | ((flags & _B.FLAG_KNOWN_ACTIVE) != 0)
    self_active = ((roles != _B.REPLICA)
                   & ((flags & _B.FLAG_SELF_ACTIVE) != 0))
    for slot, value, active, last, stamp, knows, sustains in zip(
            slots, batch.values, ((flags & _B.FLAG_ACTIVE) != 0).tolist(),
            ((flags & _B.FLAG_LAST_ACTIVATES) != 0).tolist(),
            np.minimum(batch.last_update, last_commit).tolist(),
            known.tolist(), self_active.tolist()):
        slot.value = value
        slot.active = active
        slot.last_activates = last
        slot.last_update_iter = stamp
        slot.replicas_known_active = knows
        slot.mirror_self_active = sustains
    if edge_cut:
        mirrors = np.flatnonzero(roles == _B.MIRROR)
        idx, counts = csr_rows(batch.edge_ptr, mirrors)
        triples = list(zip(_interned(batch.edge_gids[idx]),
                           _interned(batch.edge_positions[idx]),
                           _interned(batch.edge_weights[idx])))
        at = 0
        for row, count in zip(mirrors.tolist(), counts.tolist()):
            slots[row].full_edges = triples[at:at + count]
            at += count
    return slots


def _interned(column: np.ndarray) -> list:
    """``column.tolist()`` with one Python object per distinct value (bit
    pattern, so ``-0.0`` stays itself): a fresh ``int`` or ``float`` per
    edge endpoint is most of an edge list's memory
    (``build_local_graphs`` interns the same way)."""
    bits = column.view(np.int64) if column.dtype.kind == "f" else column
    _, first, inverse = np.unique(bits, return_index=True,
                                  return_inverse=True)
    return column[first].astype(object)[inverse].tolist()


def _metas(batch: RecoveryBatch) -> list[MasterMeta | None]:
    """Each row's copy of the master metadata (``None`` for replicas)."""
    nodes, positions = (batch.replica_nodes.tolist(),
                        batch.replica_positions.tolist())
    mirrors = batch.mirror_nodes.tolist()
    rp, mp = batch.replica_ptr.tolist(), batch.mirror_ptr.tolist()
    return [None if role == _B.REPLICA else MasterMeta(
        dict(zip(nodes[rp[i]:rp[i + 1]], positions[rp[i]:rp[i + 1]])),
        mirrors[mp[i]:mp[i + 1]], master_node, master_position)
        for i, (role, master_node, master_position) in enumerate(zip(
            batch.roles.tolist(), batch.master_node.tolist(),
            batch.master_position.tolist()))]


def place_rows(lg: LocalGraph, batch: RecoveryBatch, last_commit: int,
               ft_only: bool, edge_cut: bool) -> list[VertexSlot]:
    """Append a batch's copies to a live node's graph, each at its
    position (``add_slot`` invalidates the node's image).  Positional
    placement is contention-free (Section 5.1.2): exactly one row exists
    per position.  ``ft_only`` marks copies made for fault tolerance
    alone, as opposed to ones a local edge is about to need."""
    slots = _row_slots(batch, last_commit, [ft_only] * len(batch), edge_cut)
    for slot, position in zip(slots, batch.positions.tolist()):
        lg.add_slot(slot, position=position)
    return slots


def reborn_graph(node: int, rows: RecoveryBatch, last_commit: int,
                 edge_cut: bool, edge_records: list = ()
                 ) -> tuple[LocalGraph, int]:
    """Rebirth's reconstruction: ``node``'s graph built in one pass from
    the rows it received (:meth:`RecoveryBatch.merge`, so in position
    order), born with its SoA image and FT census like a loaded node's.

    Under edge-cut the edges are the masters' shipped in-edges, under
    vertex-cut the crashed node's deduplicated edge-ckpt
    ``edge_records``.  FT-only copies are the non-masters with no local
    edge, the rule loading follows.  Returns ``(graph, edges linked)``.
    """
    pos = rows.positions
    n = int(pos[-1]) + 1 if pos.size else 0
    clash = np.flatnonzero(pos[1:] == pos[:-1])
    if clash.size:
        raise EngineError(
            f"position {pos[clash[0]]} on node {node} occupied")
    gids = np.full(n, -1, dtype=np.int64)
    gids[pos] = rows.gids
    edges = (_shipped_edges(rows, gids) if edge_cut
             else _reloaded_edges(node, rows, edge_records))
    linked = edges[0].size
    topo, census = _reborn_image(rows, gids, *edges)
    del edges  # the stamping below is the memory peak
    positions = np.arange(n).astype(object)
    out_counts = np.bincount(topo.out_src, minlength=n)
    slots = _row_slots(
        rows, last_commit,
        (~topo.is_master & ~topo.has_in & (out_counts == 0))[pos].tolist(),
        edge_cut,
        list(zip(positions[topo.in_src].tolist(), _interned(topo.in_w))),
        topo.in_counts[pos].tolist(), positions[topo.out_dst].tolist(),
        out_counts[pos].tolist())
    array: list[VertexSlot | None] = slots
    if pos.size < n:
        array = [None] * n
        for position, slot in zip(pos.tolist(), slots):
            array[position] = slot
    lg = LocalGraph.adopt(node, array, dict(zip(
        [s.gid for s in slots], positions[pos].tolist())), topo, census)
    active = (rows.flags & _B.FLAG_ACTIVE) != 0
    master = rows.roles == _B.MASTER
    lg.active_masters.update(rows.gids[active & master].tolist())
    lg.active_others.update(rows.gids[active & ~master].tolist())
    return lg, linked


def _shipped_edges(rows: RecoveryBatch, gids: np.ndarray):
    """``(src, dst, weight)`` of the masters' shipped in-edges, in link
    order.  Positions are stable, so each source position is checked
    against the gid shipped with it."""
    masters = np.flatnonzero(rows.roles == _B.MASTER)
    idx, counts = csr_rows(rows.edge_ptr, masters)
    src, src_gid = rows.edge_positions[idx], rows.edge_gids[idx]
    bad = np.flatnonzero((src >= gids.size)
                         | (gids[np.minimum(src, gids.size - 1)] != src_gid))
    if bad.size:
        raise UnrecoverableFailureError(
            f"position {src[bad[0]]} expected vertex {src_gid[bad[0]]}")
    return (src, np.repeat(rows.positions[masters], counts),
            rows.edge_weights[idx])


def _reloaded_edges(node: int, rows: RecoveryBatch, records: list):
    """``(src, dst, weight)`` of the crashed node's edge-ckpt records,
    translated to positions, in record order."""
    by_gid = np.argsort(rows.gids, kind="stable")
    src, src_ok = _positions_of(rows, by_gid, [r.src for r in records])
    dst, dst_ok = _positions_of(rows, by_gid, [r.dst for r in records])
    bad = np.flatnonzero(~(src_ok & dst_ok))
    if bad.size:
        record = records[bad[0]]
        raise UnrecoverableFailureError(
            f"edge ({record.src}, {record.dst}) endpoints missing "
            f"after reconstruction on node {node}")
    return src, dst, np.fromiter((r.weight for r in records), np.float64,
                                 len(records))


def _reborn_image(rows: RecoveryBatch, gids: np.ndarray, src: np.ndarray,
                  dst: np.ndarray, weight: np.ndarray):
    """The reborn node's ``(NodeTopology, FT census)``: the edge CSRs
    are stable sorts of the edges' link order, and the masters' sync
    fan-out and FT levels come from their shipped metadata."""
    n, pos = gids.size, rows.positions
    masters = np.flatnonzero(rows.roles == _B.MASTER)
    rp, copies = csr_rows(rows.replica_ptr, masters)
    mp, seats = csr_rows(rows.mirror_ptr, masters)
    copy_node = rows.replica_nodes[rp]
    stride = int(max(copy_node.max(initial=0),
                     rows.mirror_nodes.max(initial=0))) + 1
    owner = np.arange(masters.size)
    is_mirror_copy = np.isin(
        np.repeat(owner, copies) * stride + copy_node,
        np.repeat(owner, seats) * stride + rows.mirror_nodes[mp])

    def at_positions(values, fill, dtype=np.int64) -> np.ndarray:
        column = np.full(n, fill, dtype=dtype)
        column[pos] = values
        return column

    role = at_positions(rows.roles, -1)
    by_dst = np.argsort(dst, kind="stable")
    by_src = np.argsort(src, kind="stable")
    topo = NodeTopology.from_columns(
        gids, at_positions(True, False, bool), role == _B.MASTER,
        role == _B.MIRROR, at_positions(rows.selfish, False, bool),
        at_positions(rows.master_node, -1),
        at_positions(rows.out_degree, 0, np.float64),
        src[by_dst], weight[by_dst], dst[by_dst], src[by_src], dst[by_src],
        *sync_columns(copy_node * 2 + is_mirror_copy,
                      np.repeat(pos[masters], copies),
                      rows.replica_positions[rp]))
    return topo, ft_census(rows.gids[masters], np.minimum(seats, copies))


def _positions_of(rows: RecoveryBatch, by_gid: np.ndarray,
                  gids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``gids`` among ``rows`` (sorted by gid through
    ``by_gid``) and which of them are there at all."""
    want = np.asarray(gids, dtype=np.int64)
    if not by_gid.size:
        return want, np.zeros(want.size, dtype=bool)
    have = rows.gids[by_gid]
    at = np.minimum(np.searchsorted(have, want), have.size - 1)
    return rows.positions[by_gid][at], have[at] == want


def _columns_written(engine: "Engine", lg: LocalGraph) -> None:
    """A value or activity write on ``lg`` outside the barrier commit:
    only a column state built over its image holds those (the image and
    the FT census do not), so the image goes only when such a state is
    live (DESIGN.md §11) — a reborn node's, say, has none yet."""
    vec = engine._vec
    if vec is not None and vec.valid_state(lg.node_id) is not None:
        lg.invalidate_soa()


def _replay_sources(engine: "Engine", lg: LocalGraph,
                    commit: int) -> np.ndarray:
    """Positions whose last committed update requested activation."""
    vec = engine._vec
    st = vec.valid_state(lg.node_id) if vec is not None else None
    if st is not None:
        return st.last_activates & (st.last_update == commit)
    return np.fromiter((s is not None and s.last_activates
                        and s.last_update_iter == commit for s in lg.slots),
                       bool, len(lg.slots))


def _activate(engine: "Engine", lg: LocalGraph, positions) -> None:
    for position in positions:
        slot = lg.slots[position]
        if not slot.active:  # a flip is a slot write
            _columns_written(engine, lg)
        lg.set_active(slot, True)


def replay_activations(engine: "Engine", nodes: list[int],
                       target_gids=None) -> int:
    """Re-execute lost activation operations (Section 5.1.3).

    For every local copy whose last committed update (stamped with the
    last committed iteration) requested activation, re-signal its local
    out-edge targets.  ``target_gids`` restricts the replay to recovered
    or promoted masters (Migration); ``None`` replays toward every local
    master (Rebirth on the new node).  Signals to masters on other
    nodes are forwarded (vertex-cut).  Returns the number of replayed
    operations.
    """
    commit = last_committed_iteration(engine)
    targets = (None if target_gids is None
               else np.fromiter(target_gids, np.int64, len(target_gids)))
    ops = 0
    remote: list[tuple[int, int, int]] = []
    for node in nodes:
        lg = engine.local_graphs[node]
        topo = lg.topology()
        hit = topo.out_dst[_replay_sources(engine, lg, commit)[topo.out_src]]
        if targets is not None:
            hit = hit[np.isin(topo.gids[hit], targets)]
        ops += hit.size
        local = topo.is_master[hit]
        _activate(engine, lg, np.unique(hit[local]).tolist())
        far = np.unique(hit[~local])
        remote.extend(zip([node] * far.size, topo.master_node[far].tolist(),
                          topo.gids[far].tolist()))
    net = engine.cluster.network
    for src, dst, gid in sorted(remote):
        if not engine.cluster.node(dst).is_alive:
            continue
        net.send(Message(MessageKind.RECOVERY, src, dst,
                         ("replay-activate", gid), BYTES_PER_VID))
    for node in engine._alive():
        lg = engine.local_graphs[node]
        for msg in net.deliver(node):
            kind, gid = msg.payload
            if kind == "replay-activate" and gid in lg.index_of:
                position = lg.index_of[gid]
                if lg.slots[position].is_master:
                    _activate(engine, lg, (position,))
    return ops


def recompute_selfish_masters(engine: "Engine", gids: list[int]) -> int:
    """Recompute selfish vertices' dynamic state from neighbors.

    Selfish vertices skipped normal sync (Section 4.4), so their
    recovered value is stale; being history-free (the optimisation's
    precondition), one gather+apply over the last committed neighbor
    values restores it.  Under vertex-cut the gather spans nodes, so
    partials are folded in node-id order like the engine does.  Each
    node works through its masters in position order.  Returns the
    number of gather operations (edges) performed.

    The recomputed value is the one the *retried* superstep will
    commit, not the last-committed one — and because selfish syncs are
    elided, no surviving copy holds the committed value either.  The
    gids therefore enter ``engine.selfish_read_fence`` so the read
    router serves them as degraded misses until the next commit
    barrier (DESIGN.md §13).
    """
    program = engine.program
    ctx = engine._ctx()
    edges = 0
    engine.selfish_read_fence.update(gids)
    by_node: dict[int, list[int]] = defaultdict(list)
    for gid in gids:
        by_node[engine.master_node_of[gid]].append(gid)
    partials: dict[int, list[tuple[int, Any]]] = defaultdict(list)
    if not engine.is_edge_cut:
        want = set(gids)
        for node in engine._alive():
            lg = engine.local_graphs[node]
            for position in sorted(lg.index_of[gid] for gid in want
                                   if gid in lg.index_of):
                slot = lg.slots[position]
                if not slot.in_edges:
                    continue
                acc = program.gather_init()
                for src_pos, weight in slot.in_edges:
                    acc = program.gather(acc, lg.view(src_pos), weight,
                                         slot.gid)
                    edges += 1
                partials[slot.gid].append((node, acc))
    for node, group in sorted(by_node.items()):
        lg = engine.local_graphs[node]
        for position in sorted(lg.index_of[gid] for gid in group):
            slot = lg.slots[position]
            gid = slot.gid
            acc = program.gather_init()
            if engine.is_edge_cut:
                for src_pos, weight in slot.in_edges:
                    acc = program.gather(acc, lg.view(src_pos), weight, gid)
                    edges += 1
            else:
                for _, part in sorted(partials.get(gid, ()),
                                      key=lambda item: item[0]):
                    acc = program.gather_sum(acc, part)
            slot.value = program.apply(gid, slot.value, acc, ctx)
            lg.set_active(slot, program.stays_active(
                gid, slot.value, slot.value, ctx))
        _columns_written(engine, lg)
    return edges


def find_lost_vertices(engine: "Engine", failed: set[int],
                       covered=None) -> list[int]:
    """Gids of dead masters no surviving mirror can recover.

    A cheap survivor-side scan (no mutation), run *before* any rung of
    the fallback ladder mutates cluster state: only mirrors hold the
    master's full state (plain FT replicas carry neither metadata nor
    edge backups), so a master is in-memory recoverable iff one of its
    mirrors survives — the lowest-id one then leads it
    (:func:`leading_mirrors`).  By default the survivors' masks of
    :func:`_orphaned_mirrors` find them; a rung passes the gids its own
    reload scan led as ``covered``.  Anything else needs the checkpoint
    rung — or is genuinely unrecoverable.
    """
    if covered is None:
        covered = [np.zeros(0, dtype=np.int64)]
        for node in engine._alive():
            if node not in failed:
                topo = engine.local_graphs[node].topology()
                covered.append(topo.gids[_orphaned_mirrors(topo, failed)])
        covered = np.concatenate(covered)
    dead = np.flatnonzero(np.isin(np.asarray(engine.master_node_of),
                                  sorted(failed)))
    return dead[~np.isin(dead, np.fromiter(covered, np.int64))].tolist()


def check_recoverable(engine: "Engine", failed: set[int], rung: str,
                      covered) -> None:
    """Raise unless ``covered`` — the dead masters a rung's reload scan
    found a leading mirror for — is all of them: the in-memory rungs'
    own guard, so one called directly reports what the ladder would."""
    lost = find_lost_vertices(engine, failed, covered)
    if lost:
        raise UnrecoverableFailureError(
            f"{len(lost)} vertices lost every copy "
            f"(e.g. vertex {lost[0]}); ft_level "
            f"{engine.job.ft.ft_level} cannot cover nodes "
            f"{sorted(failed)}", lost_vertices=len(lost),
            rungs_attempted=(rung,),
            surviving_nodes=tuple(
                n for n in engine._alive() if n not in failed))


def create_replica(engine: "Engine", gid: int,
                   node: int) -> tuple[int, int]:
    """Create a plain replica of ``gid`` on ``node`` from its master.

    Used when migrated edges, or a moved master's in-edges, land on a
    node with no local copy of an endpoint ("some new replicas are
    necessary to retain local access semantics", Section 5.2.1): state
    fetched from the master, registered in the master's (and every
    mirror's) metadata, counted as recovery traffic.  Returns
    ``(position, bytes)``.
    """
    master_node = engine.master_node_of[gid]
    master_lg = engine.local_graphs[master_node]
    master_slot = master_lg.slot_of(gid)
    position = len(engine.local_graphs[node].slots)
    # ``node`` holds no copy, so it is not among the mirrors: the copy is
    # a plain replica, and one a local edge is about to need.
    batch = _replica_row(engine, gid, node, position)
    place_rows(engine.local_graphs[node], batch,
               last_committed_iteration(engine), False, engine.is_edge_cut)
    master_slot.meta.replica_positions[node] = position
    master_slot.meta.invalidate_replica_cache()
    master_lg.invalidate_soa()  # its sync plan grew; add_slot covered ``node``
    nbytes = batch.rows_nbytes(engine.program.value_nbytes)
    engine.cluster.network.send(
        Message(MessageKind.RECOVERY, master_node, node,
                ("replica-state", gid), nbytes))
    # Keep mirrors' metadata copies fresh.
    for mirror_node in master_slot.meta.mirror_nodes:
        mirror = engine.local_graphs[mirror_node].slot_of(gid)
        if mirror.meta is not None:
            mirror.meta.replica_positions[node] = position
            mirror.meta.invalidate_replica_cache()
    return position, nbytes


def _replica_row(engine: "Engine", gid: int, node: int,
                 position: int) -> RecoveryBatch:
    """The 1-row batch a master sends to put a plain replica of ``gid``
    at ``position`` on ``node``."""
    master_node = engine.master_node_of[gid]
    return pack_rows(
        engine, master_node,
        np.array([engine.local_graphs[master_node].position_of(gid)]),
        np.array([RecoveryBatch.REPLICA]), node, np.array([position]))


def masters_below(engine: "Engine", alive: list[int],
                  k: int) -> tuple[list[int], int]:
    """Scan the live nodes' masters for FT levels below ``k``.

    Returns the sorted gids in deficit and the largest per-node master
    count (the nodes scan in parallel, so that bounds the scan's cost).
    """
    deficit: list[int] = []
    widest = 0
    for node in alive:
        masters, by_level = engine.local_graphs[node].ft_census()
        widest = max(widest, masters)
        for level, gids in by_level.items():
            if level < k:
                deficit.extend(gids)
    return sorted(deficit), widest


def min_ft_level(engine: "Engine", cap: int) -> int:
    """The lowest FT level any live master has, capped at ``cap``."""
    return min([cap, *(level for node in engine._alive()
                       for level in engine.local_graphs[node].ft_census()[1])])


def repair_transfer_s(engine: "Engine", created: int,
                      num_alive: int) -> float:
    """Simulated cost of a repair round that created ``created`` copies:
    replica state transfer spread over the live nodes, plus one
    coordination round."""
    model = engine.model
    return (created * model.per_vertex_reconstruct_s * model.data_scale
            / max(1, num_alive) + model.recovery_round_s)


def restore_ft_level(engine: "Engine", gids: list[int],
                     seed_label: str, k: int | None = None
                     ) -> tuple[int, int]:
    """Re-create FT replicas and mirrors for the given master vertices.

    After recovery some vertices have fewer than ``ft_level`` mirrors
    (crashed copies, promoted mirrors).  New FT replicas are placed with
    the same randomized least-loaded heuristic as loading (Section 4.1)
    and new mirrors elected; new mirrors receive the master's full
    state.  ``k`` overrides the target replication level (the adaptive
    floor, DESIGN.md §14); the default is the engine's current effective
    floor.  Returns ``(replicas_created, mirror_bytes_sent)``.
    """
    if k is None:
        k = engine.membership.effective_floor
    if k <= 0:
        return (0, 0)
    rng = SeededRng(engine.seed, seed_label, engine.iteration)
    alive = [n for n in engine._alive()
             if (n < engine.cluster.num_workers
                 or n in engine.local_graphs)
             and engine.cluster.placement_eligible(n)]
    created = 0
    bytes_sent = 0
    program = engine.program
    for gid in gids:
        master_node = engine.master_node_of[gid]
        master_lg = engine.local_graphs[master_node]
        master_slot = master_lg.slot_of(gid)
        meta = master_slot.meta
        # Ensure at least k replicas exist.
        while len(meta.replica_positions) < k:
            excluded = set(meta.replica_positions) | {master_node}
            pool = [n for n in alive if n not in excluded]
            if not pool:
                break
            # Adopt untracked surviving copies first: a copy can
            # outlive its metadata entry (a reborn node restores its
            # slots, but the master's replica_positions was pruned at
            # crash time).  Re-registering it — with state refreshed
            # from the master — is a free replica, and placing a *new*
            # copy on that node would collide with the old slot.
            orphans = [n for n in pool
                       if gid in engine.local_graphs[n].index_of]
            if orphans:
                node = orphans[0]
                orphan = engine.local_graphs[node].slot_of(gid)
                orphan.value = master_slot.value
                orphan.last_activates = master_slot.last_activates
                orphan.last_update_iter = master_slot.last_update_iter
                orphan.master_node = master_node
                engine.local_graphs[node].invalidate_soa()
                meta.replica_positions[node] = \
                    engine.local_graphs[node].position_of(gid)
                created += 1
                bytes_sent += program.value_nbytes(master_slot.value) \
                    + BYTES_PER_VID
                continue
            candidates = engine.job.ft.placement_candidates
            sample = (rng.sample(pool, candidates)
                      if len(pool) > candidates else pool)
            best = min(sample,
                       key=lambda n: (len(engine.local_graphs[n].slots), n))
            # A plain FT replica, elected below if chosen as mirror.
            position = len(engine.local_graphs[best].slots)
            batch = _replica_row(engine, gid, best, position)
            place_rows(engine.local_graphs[best], batch,
                       last_committed_iteration(engine), True,
                       engine.is_edge_cut)
            meta.replica_positions[best] = position
            created += 1
            bytes_sent += batch.rows_nbytes(program.value_nbytes)
        # Elect mirrors up to k, keeping surviving ones.
        meta.mirror_nodes = [n for n in meta.mirror_nodes
                             if n in meta.replica_positions]
        pool = [n for n in meta.replica_positions
                if n not in meta.mirror_nodes]
        pool.sort(key=lambda n: (len(engine.local_graphs[n].slots), n))
        while len(meta.mirror_nodes) < min(k, len(meta.replica_positions)):
            node = pool.pop(0)
            meta.mirror_nodes.append(node)
            mirror_slot = engine.local_graphs[node].slot_of(gid)
            mirror_slot.mirror_self_active = master_slot.mirror_self_active
            if engine.is_edge_cut:
                mirror_slot.full_edges = [
                    (master_lg.slots[pos].gid, pos, weight)
                    for pos, weight in master_slot.in_edges]
                bytes_sent += len(mirror_slot.full_edges) * 24
            bytes_sent += 64
        meta.invalidate_replica_cache()
        master_lg.invalidate_soa()  # its sync plan and FT level changed
        # Every mirror, new or surviving, gets its seat and the final
        # metadata copy (survivors hold stale ones after the changes).
        for node in meta.mirror_nodes:
            engine.local_graphs[node].invalidate_soa()
            mslot = engine.local_graphs[node].slot_of(gid)
            mslot.role = Role.MIRROR
            mslot.mirror_id = meta.mirror_nodes.index(node)
            mslot.meta = MasterMeta(
                replica_positions=dict(meta.replica_positions),
                mirror_nodes=list(meta.mirror_nodes),
                master_node=meta.master_node,
                master_position=meta.master_position,
            )
    return created, bytes_sent

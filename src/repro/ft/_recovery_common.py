"""Shared machinery for Rebirth and Migration recovery (Section 5).

Both strategies decompose into the paper's three phases:

* **Reloading** — surviving nodes decide what they must recover with
  array masks over their SoA image (fully decentralised: the needed
  location knowledge is in the master metadata every master and mirror
  already holds, and in the image's ``sync_plan`` / ``sync_peer``): one
  :class:`ReloadScan` per ladder pass, one :class:`SurvivorScan` — one
  orphan mask, one ``SlotArray.metadata`` read — per survivor, read by
  the ladder's precheck, the rungs' guard and what they ship.  The
  selected rows are packed into columnar
  :class:`~repro.engine.messages.RecoveryBatch`\\ es (:func:`pack_rows`),
  values in their column's dtype: no slot is stamped;
* **Reconstruction** — received rows are written positionally into the
  destination's vertex array: a reborn node is built whole, SoA image
  included, in one pass (:func:`reborn_graph`), and new copies
  join a live node a batch at a time (:func:`place_replicas`);
* **Replay** — activation operations stamped with the last committed
  iteration are re-executed, and selfish vertices' dynamic state is
  recomputed from their neighbors, both over unique sorted positions.

The helpers here are strategy-agnostic; the strategy modules orchestrate
them and do the strategy-specific accounting.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.cluster.network import Message, MessageKind
from repro.engine.local_graph import DYNAMIC, LocalGraph, stamp_slots
from repro.engine.messages import (RecoveryBatch, csr_first, csr_ptr,
                                   csr_rows, take_rows)
from repro.engine.soa import NodeTopology, sync_columns
from repro.engine.state import MasterMeta, Role, VertexSlot
from repro.errors import EngineError, UnrecoverableFailureError
from repro.ft.edge_ckpt import NO_EDGES, Edges
from repro.utils.arrays import sorted_unique, stable_order
from repro.utils.rng import SeededRng
from repro.utils.sizing import BYTES_PER_EDGE, BYTES_PER_VID

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import Engine

_B = RecoveryBatch


def last_committed_iteration(engine: "Engine") -> int:
    """The iteration whose barrier last committed successfully."""
    return engine.iteration - 1


class SurvivorScan:
    """One survivor's reload scan for one ladder pass, a function of its
    own image and metadata (Sections 5.1.1 and 5.3.1): one mask pass
    for the mirrors whose master sat on a node ``dead`` marks (a vacant
    position's -1 reads its never-set last entry); one
    ``SlotArray.metadata`` read of them and of the masters here with a
    mirror seat on a failed node; the leading-mirror mask (the surviving
    mirror with the lowest id does the work, the others stay silent).
    :meth:`meta_of` gathers read rows again, reading nothing."""

    def __init__(self, lg: LocalGraph, dead: np.ndarray):
        self.topo = topo = lg.topology()
        #: Positions of the orphaned mirrors, and of those leading here.
        self.orphans = np.flatnonzero(topo.is_mirror
                                      & dead[topo.master_node])
        seated = [at for (dst, mirror), at in topo.sync_plan.items()
                  if mirror and dead[dst]]
        read = np.concatenate((self.orphans, *seated))
        self.meta = meta = lg.slots.metadata(read)
        self._row = np.full(topo.n, -1, dtype=np.int64)
        self._row[read] = np.arange(read.size)
        seats = meta["mirror_nodes"]
        first = csr_first(meta["mirror_ptr"],
                          ~dead[seats])[:self.orphans.size]
        lead = first >= 0
        lead[lead] = seats[first[lead]] == lg.node_id
        #: The leading mirrors' rows of ``meta``, and their positions.
        self.lead_rows = np.flatnonzero(lead)
        self.lead = self.orphans[lead]

    def meta_of(self, pos: np.ndarray) -> dict[str, np.ndarray]:
        """The metadata read's rows at positions ``pos``; a position the
        scan did not read is an error, not another row's metadata."""
        rows = self._row[pos]
        if (rows < 0).any():
            raise EngineError(f"positions {pos[rows < 0].tolist()} are "
                              "outside the reload scan's read")
        return take_rows(self.meta, rows)


class ReloadScan:
    """The survivor side of one ladder pass (DESIGN.md §11): a
    :class:`SurvivorScan` per survivor, read by the lost-vertex
    precheck, the rungs' guard and what they ship.  ``lost`` are the
    dead masters no orphaned mirror covers (only mirrors hold a master's
    full state), ``led`` the gids the leading mirrors recover, survivor
    by survivor."""

    def __init__(self, engine: "Engine", failed: set[int]):
        self.failed = failed
        # One entry per node id, and a last one that stays False.
        dead = np.zeros(max(engine.cluster.nodes) + 2, dtype=bool)
        dead[list(failed)] = True
        self.survivors = [n for n in engine._alive() if n not in failed]
        self.nodes = {n: SurvivorScan(engine.local_graphs[n], dead)
                      for n in self.survivors}
        self._master_dead = dead[engine.master_node_of]
        self.led, orphaned = (np.concatenate([np.zeros(0, np.int64), *(
            scan.topo.gids[getattr(scan, name)]
            for scan in self.nodes.values())]) for name in ("lead", "orphans"))
        self.lost = self.uncovered(orphaned)

    def uncovered(self, covered: np.ndarray) -> list[int]:
        """The dead masters' gids not in ``covered``, ascending."""
        lost = self._master_dead.copy()
        lost[covered] = False
        return np.flatnonzero(lost).tolist()


def _committed_rows(lg: LocalGraph, pos: np.ndarray):
    """``gid, value, active, last_activates, mirror_self_active,
    replicas_known_active, last_update_iter, is_master, selfish,
    master_node`` of the copies at positions ``pos`` of ``lg``, one
    column each: the committed half from the node's columns (values in
    their own dtype), the static half from its image — or, with none
    cached, from ``SlotArray.metadata``."""
    topo = lg.cached_topology
    if topo is None:
        meta = lg.slots.metadata(pos)
        static = (meta["gids"], meta["roles"] == _B.MASTER, meta["selfish"],
                  meta["master_node"])
    else:
        static = (topo.gids[pos], topo.is_master[pos], topo.selfish[pos],
                  topo.master_node[pos])
    return (static[0], lg.values[pos], lg.active[pos],
            lg.last_activates[pos], lg.mirror_self_active[pos],
            lg.replicas_known_active[pos], lg.last_update[pos], *static[1:])


def pack_rows(engine: "Engine", node: int, pos: np.ndarray,
              roles: np.ndarray, dst: int, dst_pos: np.ndarray,
              read=None) -> RecoveryBatch:
    """The recovery batch ``node`` sends ``dst``: row *i* restores, at
    position ``dst_pos[i]`` there, a copy of role ``roles[i]`` of the
    vertex whose master — or, for a dead master, leading mirror — sits at
    ``pos[i]`` here.  A ``MASTER`` row is a dead master's full state,
    shipped by that mirror.

    Values and flags come from :func:`_committed_rows`; the metadata of
    master and mirror rows and a mirror's edge backup from ``read`` —
    a :class:`SurvivorScan`'s ``meta_of``, else ``SlotArray.metadata``;
    a master's in-edges from the node's image; degrees from the graph.
    Stamps nothing.
    """
    lg = engine.local_graphs[node]
    rows = pos.size
    (gids, values, active, last_activates, self_active, replicas_known,
     last_update, is_master, selfish, master_node) = _committed_rows(lg, pos)
    # A copy believes what the master last broadcast: the master's
    # ``replicas_known_active``; on a mirror, its own flag.
    known = np.where(is_master, replicas_known, active)
    flags = (np.where(roles == _B.MASTER, self_active, known) * _B.FLAG_ACTIVE
             | last_activates * _B.FLAG_LAST_ACTIVATES
             | self_active * _B.FLAG_SELF_ACTIVE
             | known * _B.FLAG_KNOWN_ACTIVE)

    # Master and mirror rows carry the metadata (Section 4.2); a mirror
    # row its seat, the index of ``dst`` in the mirror list.
    with_meta = np.flatnonzero(roles != _B.REPLICA)
    meta = (read or lg.slots.metadata)(pos[with_meta])
    mirror_id = np.full(rows, -1, dtype=np.int64)
    seat = csr_first(meta["mirror_ptr"], meta["mirror_nodes"] == dst)
    mirror_id[roles == _B.MIRROR] = (seat - meta["mirror_ptr"][:-1])[
        roles[with_meta] == _B.MIRROR]
    master_position = np.full(rows, -1, dtype=np.int64)
    master_position[with_meta] = meta["master_position"]
    replica_count = np.zeros(rows, dtype=np.int64)
    replica_count[with_meta] = np.diff(meta["replica_ptr"])
    mirror_count = np.zeros(rows, dtype=np.int64)
    mirror_count[with_meta] = np.diff(meta["mirror_ptr"])

    # Edge-cut: the master's in-edges ride with its full state
    # (Section 4.3), in the master node's positions — the image's CSR
    # for a master here, the mirror's backup for a dead master.
    edge_count = np.zeros(rows, dtype=np.int64)
    edges = [np.zeros(0, dtype=np.int64)] * 2 + [np.zeros(0)]
    if engine.is_edge_cut and with_meta.size:
        from_master = is_master[with_meta]
        own, backed = with_meta[from_master], with_meta[~from_master]
        edge_count[backed] = np.diff(meta["edge_ptr"])[~from_master]
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
        at, _ = csr_rows(edge_ptr, backed)
        for column, name in zip(edges, ("edge_gids", "edge_positions",
                                        "edge_weights")):
            column[at] = meta[name]
    out_off, in_off = engine.graph.out_offsets, engine.graph.in_offsets
    return RecoveryBatch(
        src_node=node, iteration=engine.iteration, gids=gids,
        positions=dst_pos, roles=roles, values=values, flags=flags,
        last_update=last_update,
        out_degree=out_off[gids + 1] - out_off[gids],
        in_degree=in_off[gids + 1] - in_off[gids], selfish=selfish,
        mirror_id=mirror_id, master_node=master_node,
        master_position=master_position,
        replica_ptr=csr_ptr(replica_count),
        replica_nodes=meta["replica_nodes"],
        replica_positions=meta["replica_positions"],
        mirror_ptr=csr_ptr(mirror_count), mirror_nodes=meta["mirror_nodes"],
        edge_ptr=csr_ptr(edge_count), edge_gids=edges[0],
        edge_positions=edges[1], edge_weights=edges[2])


def _row_state(batch: RecoveryBatch, last_commit: int) -> tuple:
    """The rows' committed state, one column each in
    :data:`~repro.engine.local_graph.DYNAMIC` order: a master keeps the
    flag its replicas believe, masters and mirrors the self-sustained
    activity; the update stamp is clamped to ``last_commit`` — a copy can
    never legitimately claim an update from an uncommitted iteration."""
    roles, flags = batch.roles, batch.flags
    return (batch.values, (flags & _B.FLAG_ACTIVE) != 0,
            (flags & _B.FLAG_LAST_ACTIVATES) != 0,
            (roles != _B.REPLICA) & ((flags & _B.FLAG_SELF_ACTIVE) != 0),
            (roles != _B.MASTER) | ((flags & _B.FLAG_KNOWN_ACTIVE) != 0),
            np.minimum(batch.last_update, last_commit))


def place_rows(lg: LocalGraph, batch: RecoveryBatch, last_commit: int,
               ft_only: bool, edge_cut: bool) -> list[VertexSlot]:
    """Append a batch's copies to a live node's graph, each at its
    position (``add_slot`` writes the row's state into the columns and
    invalidates the node's image).  Positional placement is
    contention-free (Section 5.1.2): exactly one row exists per
    position.  ``ft_only`` marks copies made for fault tolerance alone,
    as opposed to ones a local edge is about to need."""
    values, *flags = _row_state(batch, last_commit)
    slots = stamp_slots(batch, np.arange(len(batch)), [ft_only] * len(batch),
                        full_edges=edge_cut)
    lg.slots.grow(int(batch.positions.max(initial=-1)) + 1)
    for slot, position, *state in zip(
            slots, batch.positions.tolist(), values.tolist(),
            *(column.tolist() for column in flags)):
        for name, value in zip(DYNAMIC.values(), state):
            setattr(slot, name, value)
        lg.add_slot(slot, position=position)
    return slots


def reborn_graph(node: int, rows: RecoveryBatch, last_commit: int,
                 edge_cut: bool, edges: Edges = NO_EDGES
                 ) -> tuple[LocalGraph, int]:
    """Rebirth's reconstruction: ``node``'s graph born from the rows it
    received (:meth:`RecoveryBatch.merge`, so in position order) as a
    loaded node is — the rows are its birth record, beside its SoA image
    and committed columns — so no slot is stamped.

    Under edge-cut the edges are the masters' shipped in-edges, under
    vertex-cut the crashed node's deduplicated edge-ckpt ``edges``.
    FT-only copies are the non-masters with no local edge, the rule
    loading follows.  Returns ``(graph, edges linked)``.
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
             else _reloaded_edges(node, rows, edges))
    linked = edges[0].size
    topo = _reborn_image(rows, gids, *edges)
    ft_only = (~topo.is_master & ~topo.has_in
               & (np.bincount(topo.out_src, minlength=n) == 0))[pos]
    return LocalGraph.born(node, rows, topo, ft_only, edge_cut,
                           _row_state(rows, last_commit)), linked


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


def _reloaded_edges(node: int, rows: RecoveryBatch, edges: Edges):
    """``(src, dst, weight)`` of the crashed node's edge-ckpt ``edges``,
    translated to positions through a gid -> position table, in their
    order."""
    src_gid, dst_gid, weight = edges
    table = np.full(int(max(rows.gids.max(initial=-1), src_gid.max(
        initial=-1), dst_gid.max(initial=-1))) + 1, -1, dtype=np.int64)
    table[rows.gids] = rows.positions
    src, dst = table[src_gid], table[dst_gid]
    bad = np.flatnonzero((src < 0) | (dst < 0))
    if bad.size:
        raise UnrecoverableFailureError(
            f"edge ({src_gid[bad[0]]}, {dst_gid[bad[0]]}) endpoints missing "
            f"after reconstruction on node {node}")
    return src, dst, weight


def _reborn_image(rows: RecoveryBatch, gids: np.ndarray, src: np.ndarray,
                  dst: np.ndarray, weight: np.ndarray):
    """The reborn node's ``NodeTopology``: the edge CSRs are stable
    sorts of the edges' link order, and the masters' sync fan-out comes
    from their shipped metadata."""
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
    by_dst = stable_order(dst, n)
    by_src = stable_order(src, n)
    topo = NodeTopology.from_columns(
        gids, at_positions(True, False, bool), role == _B.MASTER,
        role == _B.MIRROR, at_positions(rows.selfish, False, bool),
        at_positions(rows.master_node, -1),
        at_positions(rows.out_degree, 0, np.float64),
        src[by_dst], weight[by_dst], dst[by_dst], src[by_src], dst[by_src],
        sync_columns(copy_node * 2 + is_mirror_copy,
                     np.repeat(pos[masters], copies),
                     rows.replica_positions[rp]))
    return topo


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
        # Positions whose last committed update requested activation.
        sources = lg.last_activates & (lg.last_update == commit)
        hit = topo.out_dst[sources[topo.out_src]]
        if targets is not None:
            hit = hit[np.isin(topo.gids[hit], targets)]
        ops += hit.size
        local = topo.is_master[hit]
        lg.active[hit[local]] = True
        far = sorted_unique(hit[~local])
        remote.extend(zip([node] * far.size, topo.master_node[far].tolist(),
                          topo.gids[far].tolist()))
    net = engine.cluster.network
    for src, dst, gid in sorted(remote):
        if not engine.cluster.node(dst).is_alive:
            continue
        net.send(Message(MessageKind.RECOVERY, src, dst,
                         ("replay-activate", gid), BYTES_PER_VID))
    for node in engine._alive():
        gids = [gid for kind, gid in (msg.payload
                                      for msg in net.deliver(node))
                if kind == "replay-activate"]
        if gids:
            lg = engine.local_graphs[node]
            topo = lg.topology()
            pos = topo.find(gids)
            pos = pos[pos >= 0]
            lg.active[pos[topo.is_master[pos]]] = True
    return ops


def recompute_selfish_masters(engine: "Engine", gids: list[int]) -> int:
    """Recompute selfish vertices' dynamic state from neighbors: in-edges
    off each node's image, values through the columns, stamping nothing.

    Selfish vertices skipped normal sync (Section 4.4), so their
    recovered value is stale; being history-free (the optimisation's
    precondition), one gather+apply over the last committed neighbor
    values restores it.  Under vertex-cut the gather spans nodes, so
    partials are folded in node-id order like the engine does.  Each
    node works through its masters in position order.  A run on the
    array path folds with its kernel (:func:`_refold`); the per-edge
    loop is for the scalar path.  Returns the number of gather
    operations (edges) performed.

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
    for gid, node in zip(gids, engine.master_node_of[
            np.asarray(gids, dtype=np.int64)].tolist()):
        by_node[node].append(gid)
    if engine._vec is not None:
        return _refold(engine, engine._vec.proto.kernel, by_node, ctx)
    partials: dict[int, list[tuple[int, Any]]] = defaultdict(list)

    def in_edges(topo, pos: np.ndarray) -> tuple[np.ndarray, list]:
        """The positions ``pos`` on a node, ascending, and per position
        its gid and in-edges ``(src positions, weights)``, from the
        node's image ``topo``."""
        pos = np.sort(pos)
        ptr = csr_ptr(topo.in_counts)
        return pos, [(gid, topo.in_src[lo:hi].tolist(),
                      topo.in_w[lo:hi].tolist())
                     for gid, lo, hi in zip(topo.gids[pos].tolist(),
                                            ptr[pos].tolist(),
                                            ptr[pos + 1].tolist())]

    if not engine.is_edge_cut:
        want = np.fromiter(set(gids), np.int64)
        for node in engine._alive():
            lg = engine.local_graphs[node]
            topo = lg.topology()
            found = topo.find(want)
            _, held = in_edges(topo, found[found >= 0])
            for gid, srcs, weights in held:
                if not srcs:
                    continue
                acc = program.gather_init()
                for src_pos, weight in zip(srcs, weights):
                    acc = program.gather(acc, lg.view(src_pos), weight, gid)
                    edges += 1
                partials[gid].append((node, acc))
    for node, group in sorted(by_node.items()):
        lg = engine.local_graphs[node]
        topo = lg.topology()
        pos, held = in_edges(topo, topo.translate(np.asarray(
            group, dtype=np.int64)))
        new = []
        for (gid, srcs, weights), old in zip(held, lg.values[pos].tolist()):
            acc = program.gather_init()
            if engine.is_edge_cut:
                for src_pos, weight in zip(srcs, weights):
                    acc = program.gather(acc, lg.view(src_pos), weight, gid)
                    edges += 1
            else:
                for _, part in sorted(partials.get(gid, ()),
                                      key=lambda item: item[0]):
                    acc = program.gather_sum(acc, part)
            new.append(program.apply(gid, old, acc, ctx))
        # A selfish vertex is no edge's source, so no gather above read a
        # value this store writes.
        lg.store(pos, values=new)
        lg.store(pos, active=[
            program.stays_active(gid, value, value, ctx)
            for (gid, *_), value in zip(held, lg.values[pos].tolist())])
    return edges


def _refold(engine: "Engine", kernel, by_node: dict, ctx) -> int:
    """:func:`recompute_selfish_masters` with the array kernel: per node
    one ``edge_fold`` over the masters' in-edges it holds, each master
    then folding its partials in node-id order (as ``master_fold_apply``
    does; under edge-cut the master's node holds them all), and one
    ``apply`` / ``stays_active`` over each node's masters."""
    want = np.fromiter({gid for group in by_node.values()
                        for gid in group}, np.int64)
    edges, parts = 0, []
    for node in engine._alive():  # ascending: the partials' fold order
        lg = engine.local_graphs[node]
        topo = lg.topology()
        pos = topo.find(want)
        pos = pos[pos >= 0]
        pos = pos[topo.has_in[pos]]
        edges += int(topo.in_counts[pos].sum())
        sel = np.zeros(topo.n, dtype=bool)
        sel[pos] = True
        acc, _ = kernel.edge_fold(topo, lg.values,
                                  np.flatnonzero(sel[topo.in_dst]))
        parts.append((topo.gids[pos], acc[pos]))
    gids, accs = map(np.concatenate, zip(*parts))
    for node, group in sorted(by_node.items()):
        lg = engine.local_graphs[node]
        topo = lg.topology()
        pos = np.sort(topo.translate(np.asarray(group, dtype=np.int64)))
        mine = engine.master_node_of[gids] == node
        at = topo.translate(gids[mine])
        acc, has = kernel.init_acc(topo.n), np.zeros(topo.n, dtype=bool)
        kernel.fold_into(acc, at, accs[mine])
        has[at] = True
        new = kernel.apply(topo.gids[pos], lg.values[pos], acc[pos],
                           has[pos], ctx)
        lg.store(pos, values=new.tolist(), active=kernel.stays_active(
            topo.gids[pos], new, new, ctx).tolist())
    return edges


def check_recoverable(engine: "Engine", scan: ReloadScan,
                      rung: str) -> None:
    """Raise unless the survivors' leading mirrors (``scan.led``) cover
    every dead master: the in-memory rungs' own guard, read off the
    ladder pass's scan, so one called directly reports what the ladder
    would."""
    lost = scan.uncovered(scan.led)
    if lost:
        raise UnrecoverableFailureError(
            f"{len(lost)} vertices lost every copy "
            f"(e.g. vertex {lost[0]}); ft_level "
            f"{engine.job.ft.ft_level} cannot cover nodes "
            f"{sorted(scan.failed)}", lost_vertices=len(lost),
            rungs_attempted=(rung,), surviving_nodes=tuple(scan.survivors))


def ft_levels(lg: LocalGraph) -> tuple[np.ndarray, np.ndarray]:
    """The gids of ``lg``'s masters, in position order, and each one's
    FT level (``MasterMeta.ft_level``).  Read from the node's image when
    one is cached — the mirrors among a master's sync targets (a mirror
    is one of its copies, so the bound by the copies holds) — else from
    the metadata columns (``SlotArray.metadata``): an FT read builds no
    image (an edge-mutating run drops its image every superstep) and
    stamps no slot."""
    topo = lg.cached_topology
    if topo is None:
        _, meta = lg.slots.masters()
        return meta["gids"], np.minimum(
            np.diff(meta["mirror_ptr"]), np.diff(meta["replica_ptr"]))
    levels = np.bincount(topo.sync_pos[topo.sync_mirror], minlength=topo.n)
    return topo.gids[topo.is_master], levels[topo.is_master]


def masters_below(engine: "Engine", alive: list[int],
                  k: int) -> tuple[list[int], int]:
    """Scan the live nodes' masters for FT levels below ``k``.

    Returns the sorted gids in deficit and the largest per-node master
    count (the nodes scan in parallel, so that bounds the scan's cost).
    """
    deficit: list[int] = []
    widest = 0
    for node in alive:
        gids, levels = ft_levels(engine.local_graphs[node])
        widest = max(widest, gids.size)
        deficit.extend(gids[levels < k].tolist())
    return sorted(deficit), widest


def min_ft_level(engine: "Engine", cap: int) -> int:
    """The lowest FT level any live master has, capped at ``cap``."""
    lows = [cap]
    for node in engine._alive():
        _, levels = ft_levels(engine.local_graphs[node])
        if levels.size:
            lows.append(int(levels.min()))
    return min(lows)


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
    floor.  Returns ``(replicas_created, mirror_bytes_sent)``.  Plans
    every vertex, places per node (:func:`place_replicas`), publishes.
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
    created = bytes_sent = 0
    planned: dict[int, list[int]] = {}  # node -> gids, in plan order
    elected = []  # (master's graph, master, kept and fresh mirrors)

    def load(n: int) -> tuple[int, int]:
        return len(engine.local_graphs[n].slots) + len(planned.get(n, ())), n
    for gid in gids:
        master_node = int(engine.master_node_of[gid])
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
                bytes_sent += engine.program.value_nbytes(
                    master_slot.value) + BYTES_PER_VID
                continue
            candidates = engine.job.ft.placement_candidates
            sample = (rng.sample(pool, candidates)
                      if len(pool) > candidates else pool)
            best = min(sample, key=load)
            # A plain FT replica, elected below if chosen as mirror; its
            # entry is taken now, in order, at the position it will get.
            meta.replica_positions[best] = load(best)[0]
            planned.setdefault(best, []).append(gid)
            created += 1
        # Elect mirrors up to k, keeping surviving ones; the new ones
        # receive the master's full state.
        keep = [n for n in meta.mirror_nodes if n in meta.replica_positions]
        pool = sorted((n for n in meta.replica_positions if n not in keep),
                      key=load)
        elected.append((master_lg, master_slot, keep, pool[:max(
            0, min(k, len(meta.replica_positions)) - len(keep))]))
    for node, placed in planned.items():
        bytes_sent += place_replicas(engine, node, placed, True)
    for master_lg, master_slot, keep, fresh in elected:
        meta = master_slot.meta
        meta.mirror_nodes = keep + fresh
        meta.invalidate_replica_cache()
        master_lg.invalidate_soa()  # its sync plan and FT level changed
        # Every mirror, new or surviving, gets its seat and the final
        # metadata copy (survivors hold stale ones after the changes).
        for node in meta.mirror_nodes:
            engine.local_graphs[node].invalidate_soa()
        bytes_sent += publish(engine, master_lg, master_slot, fresh)
    return created, bytes_sent


# ----------------------------------------------------------------------
# Copy placement after load: every write of a role, a metadata copy or a
# local edge outside the barrier commit goes through these (Migration,
# FT repair, elastic moves and drains).  They invalidate no SoA image
# but through the copies :func:`place_replicas` makes: the caller does,
# for the write set it knows (DESIGN.md §11).
# ----------------------------------------------------------------------

def place_replicas(engine: "Engine", node: int, gids,
                   ft_only: bool) -> int:
    """The one writer of new copies on a live node: plain replicas of
    ``gids`` (none held on ``node``) at its next free positions, in
    order — one :func:`pack_rows` per master node, one :func:`place_rows`,
    each position registered in every metadata copy.  A copy a local
    edge needs (Section 5.2.1) ships as one ``RECOVERY`` message; the
    caller books ``ft_only`` ones (a repair round, a master move).  The
    masters' images drop once, at the end.  Returns the rows' bytes."""
    if not (gids := list(gids)):
        return 0
    lg = engine.local_graphs[node]
    positions = np.arange(len(lg.slots), len(lg.slots) + len(gids))
    owners = engine.master_node_of[np.asarray(gids, dtype=np.int64)]
    masters = sorted_unique(owners).tolist()
    batches = []
    for owner in masters:
        rows = np.flatnonzero(owners == owner)
        at = engine.local_graphs[owner].index_of
        batches.append(pack_rows(
            engine, owner, np.array([at[gids[row]] for row in rows]),
            np.full(rows.size, _B.REPLICA), node, positions[rows]))
    batch = RecoveryBatch.merge(batches)
    place_rows(lg, batch, last_committed_iteration(engine), ft_only,
               engine.is_edge_cut)
    sizes = batch.row_nbytes(engine.program).tolist()
    for gid, position, owner, nbytes in zip(gids, positions.tolist(),
                                            owners.tolist(), sizes):
        for meta in metadata_copies(engine, gid):
            meta.replica_positions[node] = position
            meta.invalidate_replica_cache()
        if not ft_only:
            engine.cluster.network.send(Message(
                MessageKind.RECOVERY, owner, node, ("replica-state", gid),
                nbytes))
    for owner in masters:
        engine.local_graphs[owner].invalidate_soa()
    return sum(sizes)


def metadata_copies(engine: "Engine", gid: int) -> list[MasterMeta]:
    """``gid``'s master metadata, then each mirror's copy of it."""
    meta = engine.local_graphs[engine.master_node_of[gid]].slot_of(gid).meta
    copies = (engine.local_graphs[node].slot_of(gid).meta
              for node in meta.mirror_nodes)
    return [meta, *(copy for copy in copies if copy is not None)]


def forget_nodes(meta: MasterMeta, nodes) -> None:
    """Drop ``nodes`` from one copy of a vertex's metadata: their
    replica positions and mirror seats, the others' order kept."""
    for node in nodes:
        meta.replica_positions.pop(node, None)
    meta.mirror_nodes = [n for n in meta.mirror_nodes if n not in nodes]
    meta.invalidate_replica_cache()


def crown(lg: LocalGraph, slot: VertexSlot, meta: MasterMeta) -> None:
    """Seat ``slot`` as its vertex's master on ``lg``, holding ``meta``:
    the master role, no mirror id, and the node and position in slot and
    metadata alike."""
    slot.role = Role.MASTER
    slot.mirror_id = -1
    slot.meta = meta
    slot.master_node = meta.master_node = lg.node_id
    meta.master_position = lg.position_of(slot.gid)


def hand_over(engine: "Engine", gid: int, src: int, dst: int) -> None:
    """Move ``gid``'s master seat from its copy on ``src`` to the one on
    ``dst``: ``dst`` leaves the copies and is crowned with the metadata;
    ``src`` stays a copy, in ``dst``'s mirror seat if it held one (same
    index, so the recovery-leader order and the mirror count hold), and
    steps down in place — :func:`publish` then seats it."""
    src_lg = engine.local_graphs[src]
    dst_lg = engine.local_graphs[dst]
    outgoing = src_lg.slot_of(gid)
    meta = outgoing.meta
    meta.replica_positions.pop(dst, None)
    meta.replica_positions[src] = src_lg.position_of(gid)
    meta.mirror_nodes = [src if n == dst else n for n in meta.mirror_nodes]
    meta.invalidate_replica_cache()
    crown(dst_lg, dst_lg.slot_of(gid), meta)
    outgoing.role = Role.MIRROR if src in meta.mirror_set else Role.REPLICA
    outgoing.mirror_id = -1
    outgoing.meta = None
    outgoing.full_edges = None


def publish(engine: "Engine", master_lg: LocalGraph, master: VertexSlot,
            fresh) -> int:
    """Write every mirror seat of ``master``'s vertex from its metadata,
    the truth (Section 4.2): the role, the mirror id and a copy of the
    metadata.  The seats on the ``fresh`` nodes also receive the
    master's full state: its self-sustained activity and, under
    edge-cut, a backup of its in-edges.  Returns the bytes shipped to
    them."""
    meta = master.meta
    nbytes = 0
    for seat, node in enumerate(meta.mirror_nodes):
        slot = engine.local_graphs[node].slot_of(master.gid)
        if node in fresh:
            slot.mirror_self_active = master.mirror_self_active
            if engine.is_edge_cut:
                slot.full_edges = edge_backup(master_lg, master)
                nbytes += len(slot.full_edges) * BYTES_PER_EDGE
            nbytes += 64
        slot.role = Role.MIRROR
        slot.mirror_id = seat
        slot.meta = MasterMeta(dict(meta.replica_positions),
                               list(meta.mirror_nodes), meta.master_node,
                               meta.master_position)
    return nbytes


def announce_master(engine: "Engine", gid: int, meta: MasterMeta) -> int:
    """The location update: every copy of ``gid`` learns its master's
    node from ``meta`` — a metadata copy the position too — by one
    control message each, in node order.  Returns the bytes sent."""
    master = meta.master_node
    net = engine.cluster.network
    for node in sorted(meta.replica_positions):
        slot = engine.local_graphs[node].slot_of(gid)
        slot.master_node = master
        if slot.meta is not None:
            slot.meta.master_node = master
            slot.meta.master_position = meta.master_position
        net.send(Message(MessageKind.CONTROL, master, node,
                         ("new-master", gid, master), BYTES_PER_VID + 4))
    return len(meta.replica_positions) * (BYTES_PER_VID + 4)


def link_edges(engine: "Engine", node: int, edges) -> int:
    """Add the local edges ``(src gid, dst gid, weight)`` to ``node``, in
    order.  The endpoints the node holds no copy of first get plain
    replicas, in one :func:`place_replicas`, in order of first
    appearance, target before source.  Returns the bytes they cost."""
    lg = engine.local_graphs[node]
    edges = list(edges)
    nbytes = place_replicas(engine, node, dict.fromkeys(
        gid for src_gid, dst_gid, _ in edges for gid in (dst_gid, src_gid)
        if gid not in lg.index_of), False)
    for src_gid, dst_gid, weight in edges:
        dst, src = lg.index_of[dst_gid], lg.index_of[src_gid]
        lg.slots[dst].in_edges.append((src, weight))
        lg.slots[src].out_edges.append(dst)
    return nbytes


def relink_masters(engine: "Engine", lg: LocalGraph,
                   masters: list[VertexSlot], backups: list) -> int:
    """Rebuild ``masters``' local in-edges on ``lg``, in one
    :func:`link_edges`, from their ``(src gid, position, weight)``
    ``backups``, and the backups from them.  Returns the replicas' bytes."""
    for master in masters:
        master.in_edges = []
    nbytes = link_edges(engine, lg.node_id, [
        (gid, master.gid, w)
        for master, backup in zip(masters, backups) for gid, _, w in backup])
    for master in masters:
        master.full_edges = edge_backup(lg, master)
    return nbytes


def edge_backup(lg: LocalGraph, master: VertexSlot) -> list:
    """A master's in-edges as ``(src gid, src position, weight)``
    triples, in its node's positions: what a mirror backs up."""
    return [(lg.slots[p].gid, p, w) for p, w in master.in_edges]

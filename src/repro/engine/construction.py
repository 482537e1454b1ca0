"""Local-graph construction (the paper's extended loading phase).

Builds every node's position-stable vertex array from a partitioning
plus a :class:`~repro.ft.replication.ReplicationPlan`, array-natively:
numpy group-bys lay out, for all nodes at once, the position tables
(masters in vertex-id order, then computation/FT replicas in vertex-id
order), the role / degree / mirror columns, the edge CSR and each
master's sync fan-out.  Each node's SoA image
(:class:`~repro.engine.soa.NodeTopology`, DESIGN.md §11) and FT census
are cut from those columns, and its ``VertexSlot`` array — every copy's
position recorded in the master metadata so recovery messages apply
positionally (Section 5.1.2), and under edge-cut the master's edge list
duplicated onto its mirrors — is stamped from the same columns by
:func:`stamp_slots`, which also builds Rebirth's reborn node.

Layout and edge order are exactly those of the slot-at-a-time reference
(``tests/reference/construction.py``); recovery equivalence relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.local_graph import LocalGraph
from repro.engine.soa import NodeTopology
from repro.engine.state import MasterMeta, Role, VertexSlot
from repro.errors import EngineError
from repro.graph.graph import Graph
from repro.obs import NULL_TRACER
from repro.partition.base import EdgeCutPartitioning, VertexCutPartitioning

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ft.replication import ReplicationPlan


@dataclass(frozen=True)
class ConstructionReport:
    """Loading census backing Figs. 3 and 8a."""

    num_vertices: int
    num_edges: int
    #: Vertices with no computation replica, split by class (Fig. 3a).
    replica_less_selfish: int
    replica_less_normal: int
    #: Replica counts (Figs. 3b, 8a).
    computation_replicas: int
    ft_replicas: int

    @property
    def extra_replica_fraction(self) -> float:
        """FT replicas over all replicas (Fig. 8a)."""
        total = self.computation_replicas + self.ft_replicas
        if total == 0:
            return 0.0
        return self.ft_replicas / total


def build_local_graphs(graph: Graph, partitioning, plan: ReplicationPlan,
                       tracer=NULL_TRACER
                       ) -> tuple[dict[int, LocalGraph], ConstructionReport]:
    """Materialise each node's local graph: ``(local_graphs, report)``,
    ``local_graphs`` mapping node id to its :class:`LocalGraph`, each
    holding its SoA image and FT census from birth.  ``tracer`` gets
    the array work and the slot stamping as two spans."""
    if isinstance(partitioning, EdgeCutPartitioning):
        # The target's master owns the edge; the source's local copy
        # there supplies the value (Fig. 1's edge-cut half).
        edge_node = np.asarray(plan.master_of)[graph.targets]
    elif isinstance(partitioning, VertexCutPartitioning):
        # Each edge lives on its assigned node; both endpoints have
        # copies there by construction of the replica sets.
        edge_node = np.asarray(partitioning.edge_node)
    else:
        raise EngineError(
            f"unsupported partitioning: {type(partitioning).__name__}")
    num_nodes = partitioning.num_nodes
    num_vertices = graph.num_vertices
    with tracer.span("load.construct.columns", cat="load",
                     vertices=num_vertices, edges=graph.num_edges):
        master_of = np.asarray(plan.master_of, dtype=np.int64)
        vertex_selfish = np.asarray(plan.selfish, dtype=bool)
        rep_gid, rep_node, rep_len = _flatten(plan.replica_nodes)
        mir_gid, mir_node, mir_len = _flatten(plan.mirror_nodes)
        ft_gid, ft_node, ft_len = _flatten(plan.ft_nodes)
        replica_less = rep_len == ft_len
        report = ConstructionReport(
            num_vertices, graph.num_edges,
            int((replica_less & vertex_selfish).sum()),
            int((replica_less & ~vertex_selfish).sum()),
            int((rep_len - ft_len).sum()), int(ft_len.sum()))

        # Every copy once — masters in vertex-id order, then replicas in
        # (vertex id, listed node) order — stably sorted by node: a
        # copy's array position is its rank within its node, and its
        # *index* from here on is ``offset[node] + position``.
        copy_node = np.concatenate([master_of, rep_node])
        order = np.argsort(copy_node, kind="stable")
        total = order.size
        offset = np.concatenate(
            [[0], np.cumsum(np.bincount(copy_node, minlength=num_nodes))])
        gids = np.concatenate([np.arange(num_vertices), rep_gid])[order]
        node_of = copy_node[order]
        position = np.arange(total) - offset[node_of]
        is_master = order < num_vertices

        # (vertex, node) -> copy index, with the two checks ``add_slot``
        # and ``position_of`` made one slot at a time: no vertex twice
        # on a node, no lookup of a copy that is not there (a bare
        # ``searchsorted`` would return its neighbour's).
        key = gids * num_nodes + node_of
        by_key = np.argsort(key)
        key_sorted = key[by_key]
        twice = np.flatnonzero(key_sorted[1:] == key_sorted[:-1])
        if twice.size:
            gid, node = divmod(int(key_sorted[twice[0]]), num_nodes)
            raise EngineError(
                f"vertex {gid} already present on node {node}")

        def copy_index(vertices, nodes):
            want = vertices * num_nodes + nodes
            found = np.minimum(np.searchsorted(key_sorted, want), total - 1)
            absent = np.flatnonzero(key_sorted[found] != want)
            if absent.size:
                gid, node = divmod(int(want[absent[0]]), num_nodes)
                raise EngineError(
                    f"vertex {gid} has no copy on node {node}")
            return by_key[found]

        master_index = copy_index(np.arange(num_vertices), master_of)
        rep_index = copy_index(rep_gid, rep_node)
        # Mirror election effects; an FT replica is recognised only
        # among the replicas (the master's node is never one).
        mirror_id = np.full(total, -1, dtype=np.int64)
        mirror_id[copy_index(mir_gid, mir_node)] = (
            np.arange(mir_gid.size)
            - np.repeat(np.cumsum(mir_len) - mir_len, mir_len))
        is_mirror = mirror_id >= 0
        role = np.array([Role.REPLICA, Role.MIRROR, Role.MASTER],
                        dtype=object)[is_mirror + 2 * is_master]
        ft_only = ~is_master & np.isin(key, ft_gid * num_nodes + ft_node)
        out_deg = graph.out_degrees()[gids]
        in_deg = graph.in_degrees()[gids]
        selfish = vertex_selfish[gids]
        master_node = master_of[gids]
        ft_level = np.minimum(mir_len, rep_len)
        # Sync fan-out: one row per replica, in vertex-id order (the
        # order of every node's masters), filed under its master's node.
        sync_from = master_of[rep_gid]

        # Each node's image, its edges linked one node at a time (the
        # edge-sized sorts are the phase's memory peak): local CSR in
        # (position, edge id) order.
        by_node = np.argsort(edge_node, kind="stable")
        edge_cut = np.concatenate(
            [[0], np.cumsum(np.bincount(edge_node, minlength=num_nodes))])
        images = []
        for node in range(num_nodes):
            lo, hi = offset[node], offset[node + 1]
            edges = by_node[edge_cut[node]:edge_cut[node + 1]]
            src_pos = copy_index(graph.sources[edges], node) - lo
            dst_pos = copy_index(graph.targets[edges], node) - lo
            by_dst = np.argsort(dst_pos, kind="stable")
            by_src = np.argsort(src_pos, kind="stable")
            rows = np.flatnonzero(sync_from == node)
            topology = NodeTopology.from_columns(
                gids[lo:hi].copy(), np.ones(hi - lo, dtype=bool),
                is_master[lo:hi].copy(), is_mirror[lo:hi].copy(),
                selfish[lo:hi].copy(), master_node[lo:hi].copy(),
                out_deg[lo:hi].astype(np.float64),
                src_pos[by_dst], graph.weights[edges[by_dst]],
                dst_pos[by_dst], src_pos[by_src], dst_pos[by_src],
                *sync_columns(
                    rep_node[rows] * 2 + is_mirror[rep_index[rows]],
                    position[master_index[rep_gid[rows]]],
                    position[rep_index[rows]]))
            masters = gids[lo:hi][is_master[lo:hi]]
            images.append((topology, ft_census(masters, ft_level[masters])))

        # One int object per position and per gid, shared by everything
        # that names it (the gid index, edge lists, master metadata), as
        # slot-at-a-time construction shared ``index_of``'s values — a
        # fresh ``int`` per edge endpoint costs ~15 MB at V = 12 500.
        pos_obj = position.astype(object)
        gid_obj = gids.astype(object)
        rep_pos = pos_obj[rep_index].tolist()
        rep_ptr = np.concatenate([[0], np.cumsum(rep_len)]).tolist()
        master_pos = pos_obj[master_index].tolist()
        # The slots are stamped from each node's own image and eight
        # per-copy columns; the other copy- and edge-sized arrays die
        # before 2 * |V| objects are born on top of them (freed heap
        # under live objects still counts toward peak RSS).
        del (copy_node, order, node_of, master_index, rep_index, key, by_key,
             key_sorted, gids, position, is_master, is_mirror, by_node,
             edge_node, rep_gid, rep_node, sync_from)

    has_full_edges = partitioning.kind == "edge-cut" and mir_len.any()
    with tracer.span("load.construct.slots", cat="load", slots=total):
        locals_: dict[int, LocalGraph] = {}
        #: Edge-cut: node -> its in-edges as ``full_edges`` triples and
        #: the CSR pointer into them.
        full_of: dict[int, tuple[list, np.ndarray]] = {}
        for node, (topo, census) in enumerate(images):
            lo, hi = int(offset[node]), int(offset[node + 1])
            positions, gid_list = pos_obj[lo:hi], gid_obj[lo:hi].tolist()
            src_pos = positions[topo.in_src].tolist()
            weights = topo.in_w.tolist()
            in_edges = list(zip(src_pos, weights))
            if has_full_edges:
                full_of[node] = (
                    list(zip(gid_obj[lo:hi][topo.in_src].tolist(),
                             src_pos, weights)),
                    np.concatenate([[0], np.cumsum(topo.in_counts)]))
            kinds = role[lo:hi].tolist()
            mnodes = master_node[lo:hi].tolist()
            # Static full state, replicated to the mirrors during graph
            # loading (Section 4.2).
            metas = (None if kind is Role.REPLICA else MasterMeta(
                dict(zip(plan.replica_nodes[gid],
                         rep_pos[rep_ptr[gid]:rep_ptr[gid + 1]])),
                list(plan.mirror_nodes[gid]), mnode, master_pos[gid])
                for gid, kind, mnode in zip(gid_list, kinds, mnodes))
            slots = stamp_slots(
                gid_list, kinds, mnodes, mirror_id[lo:hi].tolist(),
                out_deg[lo:hi].tolist(), in_deg[lo:hi].tolist(),
                selfish[lo:hi].tolist(), ft_only[lo:hi].tolist(), metas,
                in_edges, topo.in_counts.tolist(),
                positions[topo.out_dst].tolist(),
                np.bincount(topo.out_src, minlength=topo.n).tolist())
            locals_[node] = LocalGraph.adopt(
                node, slots, dict(zip(gid_list, positions.tolist())),
                topo, census)
        if has_full_edges:
            # Edges ride with the masters' full state, so every mirror
            # duplicates its master's in-edge list (Section 4.3).
            for lg in locals_.values():
                for slot in lg.iter_mirrors():
                    triples, ptr = full_of[slot.master_node]
                    at = slot.meta.master_position
                    slot.full_edges = triples[ptr[at]:ptr[at + 1]]
    return locals_, report


def stamp_slots(gids, roles, master_node, mirror_id, out_deg, in_deg,
                selfish, ft_only, metas, in_edges: list, in_counts,
                out_edges: list, out_counts) -> list[VertexSlot]:
    """Vertex slots stamped from per-copy columns — iterables over the
    same copies, in order; ``metas`` holds ``None`` for plain replicas —
    and their local edges: ``in_edges`` the ``(src position, weight)``
    pairs and ``out_edges`` the target positions, each in CSR order and
    cut per copy by ``in_counts`` / ``out_counts``.  The loader's
    per-node pass, Rebirth's reborn node and the single copies recovery
    appends (``ft/_recovery_common.py``) all stamp their slots here."""
    slots = []
    in_at = out_at = 0
    for gid, kind, mnode, mid, outd, ind, sf, fo, meta, ins, outs in zip(
            gids, roles, master_node, mirror_id, out_deg, in_deg, selfish,
            ft_only, metas, in_counts, out_counts):
        slots.append(VertexSlot(
            gid=gid, role=kind, out_degree=outd, in_degree=ind,
            in_edges=in_edges[in_at:in_at + ins],
            out_edges=out_edges[out_at:out_at + outs],
            meta=meta, master_node=mnode, ft_only=fo, selfish=sf,
            mirror_id=mid))
        in_at += ins
        out_at += outs
    return slots


def sync_columns(to: np.ndarray, master_pos: np.ndarray,
                 peer_pos: np.ndarray) -> tuple[dict, np.ndarray]:
    """A node's ``sync_plan`` and ``sync_peer`` from one row per
    (master, copy) pair in the order a walk over the masters meets them
    (send order): ``to`` is the copy's node * 2 + is-mirror,
    ``master_pos`` the master's position, ``peer_pos`` the copy's."""
    keys = dict.fromkeys(to.tolist())
    masks = [to == key for key in keys]
    return ({(key >> 1, bool(key & 1)): master_pos[mask]
             for key, mask in zip(keys, masks)},
            np.concatenate([np.zeros(0, dtype=np.int64),
                            *(peer_pos[mask] for mask in masks)]))


def ft_census(masters: np.ndarray,
              levels: np.ndarray) -> tuple[int, dict[int, list[int]]]:
    """``LocalGraph.ft_census`` of a node from its master gids and their
    FT levels, both in position order: levels in the order a walk first
    meets them."""
    return masters.size, {level: masters[levels == level].tolist()
                          for level in dict.fromkeys(levels.tolist())}


def _flatten(node_lists: list[list[int]]) -> tuple[np.ndarray, ...]:
    """``(vertex, node)`` columns of a per-vertex list of node lists, in
    listed order, and the per-vertex lengths."""
    lens = np.fromiter(map(len, node_lists), np.int64,
                       count=len(node_lists))
    nodes = np.fromiter(chain.from_iterable(node_lists), np.int64,
                        count=int(lens.sum()))
    return np.repeat(np.arange(len(node_lists)), lens), nodes, lens

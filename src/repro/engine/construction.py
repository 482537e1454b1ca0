"""Local-graph construction (the paper's extended loading phase).

Builds every node's position-stable vertex array from a partitioning
plus a :class:`~repro.ft.replication.ReplicationPlan`, array-natively:
numpy group-bys lay out, for all nodes at once, the position tables
(masters in vertex-id order, then computation/FT replicas in vertex-id
order), the role / degree / mirror columns, the edge CSR and each
master's sync fan-out, with no binary search and no comparison sort: a
copy lookup is a gather from a per-node gid table, and each sort is a
radix pass over keys known to be small (node ids, positions;
:func:`~repro.utils.arrays.stable_order`).  Each node's SoA image
(:class:`~repro.engine.soa.NodeTopology`, DESIGN.md §11) is cut from
those columns, and so is its birth record (:func:`_birth_record`):
every copy's position recorded in the master metadata so recovery
messages apply positionally (Section 5.1.2), and under edge-cut the
master's edge list duplicated onto its mirrors.  A node is born from
the two (:meth:`LocalGraph.born`, which Rebirth's
reborn node goes through too); no ``VertexSlot`` exists until a consumer
indexes one.

Layout and edge order are exactly those of the slot-at-a-time reference
(``tests/reference/construction.py``); recovery equivalence relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.local_graph import LocalGraph
from repro.engine.messages import RecoveryBatch, csr_ptr, csr_rows
from repro.engine.soa import NodeTopology, sync_columns
from repro.errors import EngineError
from repro.graph.graph import Graph
from repro.obs import NULL_TRACER
from repro.partition.base import EdgeCutPartitioning, VertexCutPartitioning
from repro.utils.arrays import stable_order

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
    born from its SoA image and birth record.  ``tracer``
    gets the array work and the birth of the graphs as two spans."""
    edge_cut = isinstance(partitioning, EdgeCutPartitioning)
    if edge_cut:
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
        rep_gid, rep_node, rep_len = plan.replica_nodes.columns()
        mir_gid, mir_node, mir_len = plan.mirror_nodes.columns()
        ft_gid, ft_node, ft_len = plan.ft_nodes.columns()
        replica_less = rep_len == ft_len
        report = ConstructionReport(
            num_vertices, graph.num_edges,
            int((replica_less & vertex_selfish).sum()),
            int((replica_less & ~vertex_selfish).sum()),
            int((rep_len - ft_len).sum()), int(ft_len.sum()))

        # Every copy once — masters in vertex-id order, then replicas in
        # (vertex id, listed node) order — stably sorted by node: a
        # copy's array position is its rank within its node, and its
        # *index* from here on is ``offset[node] + position``.  The
        # plan's copies find theirs through the inverse permutation.
        copy_node = np.concatenate([master_of, rep_node])
        order = stable_order(copy_node, num_nodes)
        total = order.size
        offset = csr_ptr(np.bincount(copy_node, minlength=num_nodes))
        gids = np.concatenate([np.arange(num_vertices), rep_gid])[order]
        node_of = copy_node[order]
        position = np.arange(total) - offset[node_of]
        is_master = order < num_vertices
        inverse = np.empty(total, dtype=np.int64)
        inverse[order] = np.arange(total)
        master_index = inverse[:num_vertices].copy()
        rep_index = inverse[num_vertices:]

        # Mirror election effects; an FT replica is recognised only
        # among the replicas (the master's node is never one).  Any
        # other (vertex, node) -> copy lookup is a gather from ``table``
        # (gid -> index on the node at hand, -1 elsewhere), filled and
        # cleared one node at a time, with the check ``add_slot`` made
        # one slot at a time: no vertex twice on a node.
        table = np.full(num_vertices, -1, dtype=np.int64)
        mirror_id = np.full(total, -1, dtype=np.int64)
        mirror_rank = (np.arange(mir_gid.size)
                       - np.repeat(plan.mirror_nodes.ptr[:-1], mir_len))
        ft_only = np.zeros(total, dtype=bool)
        mir_at, mir_ptr = _by_node(mir_node, num_nodes)
        ft_at, ft_ptr = _by_node(ft_node, num_nodes)
        for node in range(num_nodes):
            index = np.arange(offset[node], offset[node + 1])
            here = gids[index]
            table[here] = index
            twice = here[table[here] != index]
            if twice.size:
                raise EngineError(f"vertex {twice.min()} already present "
                                  f"on node {node}")
            rows = mir_at[mir_ptr[node]:mir_ptr[node + 1]]
            mirror_id[_copies(table, mir_gid[rows], node)] = mirror_rank[rows]
            found = table[ft_gid[ft_at[ft_ptr[node]:ft_ptr[node + 1]]]]
            ft_only[found[found >= 0]] = True
            table[here] = -1
        is_mirror = mirror_id >= 0
        ft_only &= ~is_master
        out_deg = graph.out_degrees()[gids]
        selfish = vertex_selfish[gids]
        master_node = master_of[gids]
        # Sync fan-out: one row per replica, in vertex-id order (the
        # order of every node's masters), filed under its master's node.
        sync_at, sync_ptr = _by_node(master_of[rep_gid], num_nodes)

        # Each node's image, its edges linked one node at a time (the
        # edge-sized sorts are the phase's memory peak): local CSR in
        # (position, edge id) order.
        by_node, edge_ptr = _by_node(edge_node, num_nodes)
        images = []
        for node in range(num_nodes):
            lo, hi = offset[node], offset[node + 1]
            table[gids[lo:hi]] = np.arange(hi - lo)
            edges = by_node[edge_ptr[node]:edge_ptr[node + 1]]
            src_pos = _copies(table, graph.sources[edges], node)
            dst_pos = _copies(table, graph.targets[edges], node)
            table[gids[lo:hi]] = -1
            by_dst = stable_order(dst_pos, hi - lo)
            by_src = stable_order(src_pos, hi - lo)
            rows = sync_at[sync_ptr[node]:sync_ptr[node + 1]]
            topology = NodeTopology.from_columns(
                gids[lo:hi].copy(), np.ones(hi - lo, dtype=bool),
                is_master[lo:hi].copy(), is_mirror[lo:hi].copy(),
                selfish[lo:hi].copy(), master_node[lo:hi].copy(),
                out_deg[lo:hi].astype(np.float64),
                src_pos[by_dst], graph.weights[edges[by_dst]],
                dst_pos[by_dst], src_pos[by_src], dst_pos[by_src],
                sync_columns(
                    rep_node[rows] * 2 + is_mirror[rep_index[rows]],
                    position[master_index[rep_gid[rows]]],
                    position[rep_index[rows]]))
            images.append(topology)

        # What the birth records cut from, per copy and per plan entry.
        records = {
            "roles": (is_mirror + 2 * is_master).astype(np.int8),
            "ft_only": ft_only, "out_deg": out_deg,
            "in_deg": graph.in_degrees()[gids], "mirror_id": mirror_id,
            "master_position": np.where(is_master | is_mirror,
                                        position[master_index][gids], -1),
            "master_index": master_index,
            "replicas": plan.replica_nodes,
            "replica_position": position[rep_index],
            "mirrors": plan.mirror_nodes}
        if edge_cut and mir_len.any():
            # Every copy's local in-edges as (src gid, src position,
            # weight), by copy index: a mirror's backup is its master's.
            records["full"] = (
                csr_ptr(np.concatenate([t.in_counts for t in images])),
                np.concatenate([t.gids[t.in_src] for t in images]),
                np.concatenate([t.in_src for t in images]),
                np.concatenate([t.in_w for t in images]))
        # The edge- and copy-sized scratch dies before the records are
        # cut (freed heap under live arrays still counts toward peak
        # RSS), the last node's slices too: a view keeps its base alive.
        del (copy_node, order, node_of, inverse, rep_index, table, mir_at,
             ft_at, mirror_rank, gids, position, is_master, is_mirror,
             by_node, edge_node, rep_gid, sync_at, index, here, found, rows,
             edges, src_pos, dst_pos, by_dst, by_src)

    with tracer.span("load.construct.slots", cat="load", slots=total):
        locals_: dict[int, LocalGraph] = {}
        for node, topo in enumerate(images):
            lo, hi = int(offset[node]), int(offset[node + 1])
            locals_[node] = LocalGraph.born(
                node, _birth_record(node, topo, lo, hi, records),
                topo, records["ft_only"][lo:hi], edge_cut)
    return locals_, report


def _by_node(nodes: np.ndarray, num_nodes: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """Row indices grouped by node, in row order within a node, and the
    groups' CSR pointer."""
    return (stable_order(nodes, num_nodes),
            csr_ptr(np.bincount(nodes, minlength=num_nodes)))


def _copies(table: np.ndarray, vertices: np.ndarray,
            node: int) -> np.ndarray:
    """``vertices``' entries in ``node``'s gid table, each one there."""
    found = table[vertices]
    absent = np.flatnonzero(found < 0)
    if absent.size:
        raise EngineError(
            f"vertex {vertices[absent[0]]} has no copy on node {node}")
    return found


def _birth_record(node: int, topo: NodeTopology, lo: int, hi: int,
                  records: dict) -> RecoveryBatch:
    """Node ``node``'s birth record: its copies (global copy indices
    ``lo:hi``) as rows in position order, with the columns the image
    does not hold, the master metadata of masters and mirrors as CSR
    slices and, under edge-cut, each mirror's copy of its master's
    in-edges.  A birth record carries no dynamic state: the graph's
    columns do."""
    roles = records["roles"][lo:hi]
    gids = topo.gids
    with_meta = roles != RecoveryBatch.REPLICA
    meta_gids = gids[with_meta]
    replica_count = np.zeros(topo.n, dtype=np.int64)
    replicas, replica_count[with_meta] = csr_rows(records["replicas"].ptr,
                                                  meta_gids)
    mirror_count = np.zeros(topo.n, dtype=np.int64)
    mirrors, mirror_count[with_meta] = csr_rows(records["mirrors"].ptr,
                                                meta_gids)
    edge_count = np.zeros(topo.n, dtype=np.int64)
    none = edges = np.zeros(0, dtype=np.int64)
    ptr, edge_gids, edge_positions, edge_weights = records.get(
        "full", (None, none, none, np.zeros(0)))
    if ptr is not None:
        # Edges ride with the masters' full state, so every mirror
        # duplicates its master's in-edge list (Section 4.3).
        mirror = roles == RecoveryBatch.MIRROR
        edges, edge_count[mirror] = csr_rows(
            ptr, records["master_index"][gids[mirror]])
    return RecoveryBatch(
        src_node=node, iteration=0, gids=gids,
        positions=np.arange(topo.n), roles=roles, values=[], flags=none,
        last_update=none, out_degree=records["out_deg"][lo:hi],
        in_degree=records["in_deg"][lo:hi], selfish=topo.selfish,
        mirror_id=records["mirror_id"][lo:hi], master_node=topo.master_node,
        master_position=records["master_position"][lo:hi],
        replica_ptr=csr_ptr(replica_count),
        replica_nodes=records["replicas"].nodes[replicas],
        replica_positions=records["replica_position"][replicas],
        mirror_ptr=csr_ptr(mirror_count),
        mirror_nodes=records["mirrors"].nodes[mirrors],
        edge_ptr=csr_ptr(edge_count), edge_gids=edge_gids[edges],
        edge_positions=edge_positions[edges],
        edge_weights=edge_weights[edges])


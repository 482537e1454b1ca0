"""Reference local-graph construction: the three-pass, slot-at-a-time
build ``repro.engine.construction`` had before it went array-native.

Kept verbatim — but for importing ``ConstructionReport`` instead of
defining it — as the oracle of ``tests/test_construction_equivalence.py``
(imported by tests only): masters, then computation/FT replicas, then
edge linkage one ``add_slot`` / ``position_of`` at a time, then mirror
election effects (full-state metadata and, under edge-cut, the
duplicated edge list).  No SoA image is handed over: a graph built here
gets its ``NodeTopology`` from ``NodeTopology.build(lg)``.

Construction order is deterministic (vertex id order within each pass),
which the recovery-equivalence tests rely on.
"""

from __future__ import annotations

import numpy as np

from repro.engine.construction import ConstructionReport
from repro.engine.local_graph import LocalGraph
from repro.engine.state import MasterMeta, Role, VertexSlot
from repro.errors import EngineError
from tests.reference.replication import ReplicationPlan
from repro.graph.graph import Graph
from repro.partition.base import EdgeCutPartitioning, VertexCutPartitioning


def build_local_graphs(graph: Graph, partitioning,
                       plan: ReplicationPlan
                       ) -> tuple[dict[int, LocalGraph],
                                  ConstructionReport]:
    """Materialise each node's local graph.

    Returns ``(local_graphs, report)`` where ``local_graphs`` maps node
    id to its :class:`LocalGraph`.
    """
    if isinstance(partitioning, EdgeCutPartitioning):
        return _build_edge_cut(graph, partitioning, plan)
    if isinstance(partitioning, VertexCutPartitioning):
        return _build_vertex_cut(graph, partitioning, plan)
    raise EngineError(
        f"unsupported partitioning: {type(partitioning).__name__}")


def _census(plan: ReplicationPlan) -> tuple[int, int, int, int]:
    """Common replica counting for the construction report."""
    selfish = plan.selfish
    replica_less_selfish = 0
    replica_less_normal = 0
    for v in range(plan.num_vertices):
        comp = len(plan.replica_nodes[v]) - len(plan.ft_nodes[v])
        if comp == 0:
            if bool(selfish[v]):
                replica_less_selfish += 1
            else:
                replica_less_normal += 1
    return (replica_less_selfish, replica_less_normal,
            plan.total_computation_replicas(), plan.total_ft_replicas())


def _make_slots(graph: Graph, plan: ReplicationPlan,
                num_nodes: int) -> dict[int, LocalGraph]:
    """Create all vertex slots (no edges yet) in deterministic order."""
    out_deg = graph.out_degrees()
    in_deg = graph.in_degrees()
    locals_: dict[int, LocalGraph] = {
        node: LocalGraph(node) for node in range(num_nodes)}
    master_of = np.asarray(plan.master_of)

    # Pass 1: masters, vertex-id order.
    for v in range(graph.num_vertices):
        node = int(master_of[v])
        meta = MasterMeta(master_node=node)
        slot = VertexSlot(gid=v, role=Role.MASTER,
                          out_degree=int(out_deg[v]),
                          in_degree=int(in_deg[v]),
                          meta=meta, master_node=node,
                          selfish=bool(plan.selfish[v]))
        meta.master_position = locals_[node].add_slot(slot)

    # Pass 2: replicas (computation + FT), vertex-id order.
    for v in range(graph.num_vertices):
        master_node = int(master_of[v])
        master_slot = locals_[master_node].slot_of(v)
        meta = master_slot.meta
        ft_set = set(plan.ft_nodes[v])
        mirror_list = plan.mirror_nodes[v]
        for node in plan.replica_nodes[v]:
            is_mirror = node in mirror_list
            slot = VertexSlot(
                gid=v,
                role=Role.MIRROR if is_mirror else Role.REPLICA,
                out_degree=int(out_deg[v]),
                in_degree=int(in_deg[v]),
                master_node=master_node,
                ft_only=node in ft_set,
                selfish=bool(plan.selfish[v]),
                mirror_id=mirror_list.index(node) if is_mirror else -1,
            )
            position = locals_[node].add_slot(slot)
            meta.replica_positions[node] = position
        meta.mirror_nodes = list(mirror_list)

    # Pass 3: copy master metadata to mirrors (static full state,
    # replicated during graph loading; Section 4.2).
    for v in range(graph.num_vertices):
        master_node = int(master_of[v])
        meta = locals_[master_node].slot_of(v).meta
        for node in plan.mirror_nodes[v]:
            mirror_slot = locals_[node].slot_of(v)
            mirror_slot.meta = MasterMeta(
                replica_positions=dict(meta.replica_positions),
                mirror_nodes=list(meta.mirror_nodes),
                master_node=meta.master_node,
                master_position=meta.master_position,
            )
    return locals_


def _build_edge_cut(graph: Graph, partitioning: EdgeCutPartitioning,
                    plan: ReplicationPlan
                    ) -> tuple[dict[int, LocalGraph], ConstructionReport]:
    locals_ = _make_slots(graph, plan, partitioning.num_nodes)
    master_of = np.asarray(plan.master_of)

    # Edge linkage: the target's master owns the edge; the source's
    # local copy there supplies the value (Fig. 1's edge-cut half).
    src_arr, dst_arr, w_arr = graph.sources, graph.targets, graph.weights
    for eid in range(graph.num_edges):
        u, v = int(src_arr[eid]), int(dst_arr[eid])
        weight = float(w_arr[eid])
        node = int(master_of[v])
        lg = locals_[node]
        u_pos = lg.position_of(u)
        v_pos = lg.position_of(v)
        lg.slot_of(v).in_edges.append((u_pos, weight))
        lg.slots[u_pos].out_edges.append(v_pos)

    # Duplicate each master's full in-edge list onto its mirrors
    # (Section 4.3, edge-cut: edges ride with the masters' full state).
    for v in range(graph.num_vertices):
        if not plan.mirror_nodes[v]:
            continue
        master_node = int(master_of[v])
        lg = locals_[master_node]
        master_slot = lg.slot_of(v)
        full = [(lg.slots[pos].gid, pos, weight)
                for pos, weight in master_slot.in_edges]
        for node in plan.mirror_nodes[v]:
            locals_[node].slot_of(v).full_edges = list(full)

    census = _census(plan)
    report = ConstructionReport(graph.num_vertices, graph.num_edges, *census)
    return locals_, report


def _build_vertex_cut(graph: Graph, partitioning: VertexCutPartitioning,
                      plan: ReplicationPlan
                      ) -> tuple[dict[int, LocalGraph], ConstructionReport]:
    locals_ = _make_slots(graph, plan, partitioning.num_nodes)
    edge_node = np.asarray(partitioning.edge_node)

    # Edge linkage: each edge lives on its assigned node; both
    # endpoints have copies there by construction of the replica sets.
    src_arr, dst_arr, w_arr = graph.sources, graph.targets, graph.weights
    for eid in range(graph.num_edges):
        u, v = int(src_arr[eid]), int(dst_arr[eid])
        weight = float(w_arr[eid])
        node = int(edge_node[eid])
        lg = locals_[node]
        u_pos = lg.position_of(u)
        v_pos = lg.position_of(v)
        lg.slots[v_pos].in_edges.append((u_pos, weight))
        lg.slots[u_pos].out_edges.append(v_pos)

    census = _census(plan)
    report = ConstructionReport(graph.num_vertices, graph.num_edges, *census)
    return locals_, report

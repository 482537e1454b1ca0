"""Partitioning result types shared by every strategy.

An **edge-cut** (Section 2.1) assigns each *vertex* to one node; the
master keeps all of its edges locally and vertices are replicated onto
nodes that hold edges pointing at them.  A **vertex-cut** assigns each
*edge* to one node; vertices are replicated onto every node holding one
of their edges and one copy is designated master.

Both types carry enough to rebuild replica sets deterministically, and
both validate their own consistency (invariant P1 in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.utils.hashing import stable_hash_array


@dataclass
class EdgeCutPartitioning:
    """Vertex -> node assignment (p-way edge-cut)."""

    num_nodes: int
    #: ``master_of[v]`` is the node owning vertex ``v`` and all its edges.
    master_of: np.ndarray
    strategy: str = "edge-cut"

    @property
    def kind(self) -> str:
        return "edge-cut"

    def validate(self, graph: Graph) -> None:
        master_of = np.asarray(self.master_of)
        if master_of.shape != (graph.num_vertices,):
            raise PartitionError(
                f"master_of has shape {master_of.shape}, expected "
                f"({graph.num_vertices},)")
        if graph.num_vertices and (master_of.min() < 0
                                   or master_of.max() >= self.num_nodes):
            raise PartitionError("vertex assigned outside [0, num_nodes)")

    def masters_on(self, node: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.master_of) == node)


@dataclass
class VertexCutPartitioning:
    """Edge -> node assignment (p-way vertex-cut)."""

    num_nodes: int
    #: ``edge_node[e]`` is the node owning edge id ``e`` (graph order).
    edge_node: np.ndarray
    #: ``master_of[v]`` is the node hosting the master copy of ``v``.
    master_of: np.ndarray
    strategy: str = "vertex-cut"

    @property
    def kind(self) -> str:
        return "vertex-cut"

    def validate(self, graph: Graph) -> None:
        edge_node = np.asarray(self.edge_node)
        master_of = np.asarray(self.master_of)
        if edge_node.shape != (graph.num_edges,):
            raise PartitionError(
                f"edge_node has shape {edge_node.shape}, expected "
                f"({graph.num_edges},)")
        if master_of.shape != (graph.num_vertices,):
            raise PartitionError("master_of length mismatch")
        if graph.num_edges and (edge_node.min() < 0
                                or edge_node.max() >= self.num_nodes):
            raise PartitionError("edge assigned outside [0, num_nodes)")
        if graph.num_vertices and (master_of.min() < 0
                                   or master_of.max() >= self.num_nodes):
            raise PartitionError("master assigned outside [0, num_nodes)")

    def edges_on(self, node: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.edge_node) == node)


def unique_pairs(vertex: np.ndarray, node: np.ndarray,
                 num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Each ``(vertex, node)`` pair once, by vertex then node: the
    sorted ``np.unique`` of ``vertex * num_nodes + node``, read off a
    presence mask over vertex x node (no sort)."""
    keys = vertex * num_nodes + node
    present = np.zeros(int(keys.max(initial=-1)) + 1, dtype=bool)
    present[keys] = True
    return np.divmod(np.flatnonzero(present), num_nodes)


def replica_pairs(graph: Graph,
                  partitioning) -> tuple[np.ndarray, np.ndarray]:
    """Every computation replica a partitioning creates (a copy off its
    vertex's master node) once, as ``(vertex, node)`` columns by vertex
    then node."""
    if isinstance(partitioning, EdgeCutPartitioning):
        # A source is copied to every node mastering one of its targets.
        vertex = graph.sources
        node = np.asarray(partitioning.master_of)[graph.targets]
    elif isinstance(partitioning, VertexCutPartitioning):
        # Both endpoints are copied to the node their edge lives on.
        vertex = np.concatenate([graph.sources, graph.targets])
        node = np.tile(np.asarray(partitioning.edge_node), 2)
    else:
        raise PartitionError(
            f"unsupported partitioning: {type(partitioning).__name__}")
    off_master = node != np.asarray(partitioning.master_of)[vertex]
    return unique_pairs(vertex[off_master], node[off_master],
                        partitioning.num_nodes)


def assign_masters_for_vertex_cut(graph: Graph, edge_node: np.ndarray,
                                  num_nodes: int,
                                  seed: int = 0) -> np.ndarray:
    """Pick a master node per vertex from the nodes hosting its edges.

    The hash node is used when it already hosts one of the vertex's
    edges (no extra replica needed); otherwise the hosting node chosen
    deterministically by a stable per-vertex hash.  Isolated vertices
    fall back to their hash node.
    """
    n = graph.num_vertices
    edge_node = np.asarray(edge_node, dtype=np.int64)
    master_of = (stable_hash_array(np.arange(n), seed)
                 % num_nodes).astype(np.int64)
    vertex, node = unique_pairs(
        np.concatenate([graph.sources, graph.targets]),
        np.tile(edge_node, 2), num_nodes)
    keeps = np.ones(n, dtype=bool)
    keeps[vertex] = False
    keeps[vertex[node == master_of[vertex]]] = True
    # The rest take their first host in (hash(v * 1_000_003 + node)
    # mod 2^30, node) order.
    moved = ~keeps[vertex]
    vertex, node = vertex[moved], node[moved]
    rank = stable_hash_array(vertex * 1_000_003 + node) % (1 << 30)
    order = np.lexsort((node, rank, vertex))
    vertex, node = vertex[order], node[order]
    first = np.flatnonzero(np.diff(vertex, prepend=-1))
    master_of[vertex[first]] = node[first]
    return master_of


def make_partitioner(strategy):
    """Resolve a :class:`~repro.config.PartitionStrategy` to a callable.

    The callable signature is ``fn(graph, num_nodes, seed=0)`` returning
    the matching partitioning type.
    """
    from repro.config import PartitionStrategy
    from repro.partition.fennel import fennel_edge_cut
    from repro.partition.grid_vertex_cut import grid_vertex_cut
    from repro.partition.hash_edge_cut import hash_edge_cut
    from repro.partition.hybrid_cut import hybrid_cut
    from repro.partition.random_vertex_cut import random_vertex_cut

    table = {
        PartitionStrategy.HASH_EDGE_CUT: hash_edge_cut,
        PartitionStrategy.FENNEL_EDGE_CUT: fennel_edge_cut,
        PartitionStrategy.RANDOM_VERTEX_CUT: random_vertex_cut,
        PartitionStrategy.GRID_VERTEX_CUT: grid_vertex_cut,
        PartitionStrategy.HYBRID_CUT: hybrid_cut,
    }
    try:
        return table[strategy]
    except KeyError:
        raise PartitionError(f"unknown strategy: {strategy}") from None

"""Random vertex-cut — the PowerGraph default [11].

Each edge is hashed (by its endpoint pair) onto a node.  Simple and
perfectly edge-balanced, but every vertex fans out replicas across many
nodes: the paper measures a replication factor of 15.96 for Twitter on
50 nodes (Fig. 14a), the worst of the three vertex-cuts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.partition.base import (
    VertexCutPartitioning,
    assign_masters_for_vertex_cut,
)
from repro.utils.hashing import stable_hash_array


def random_vertex_cut(graph: Graph, num_nodes: int,
                      seed: int = 0) -> VertexCutPartitioning:
    """Assign each edge to ``hash(src, dst) mod num_nodes``."""
    if num_nodes < 1:
        raise PartitionError("num_nodes must be >= 1")
    src = graph.sources.astype(np.uint64)
    dst = graph.targets.astype(np.uint64)
    # splitmix64 of the endpoint key: stable_hash_array adds the
    # golden-ratio increment itself, so the key is offset by it.
    key = (src * np.uint64(0x9E3779B97F4A7C15)
           + dst * np.uint64(0xBF58476D1CE4E5B9)
           + np.uint64((seed * 0x94D049BB133111EB - 0x9E3779B97F4A7C15)
                       & 0xFFFFFFFFFFFFFFFF))
    edge_node = (stable_hash_array(key) % num_nodes).astype(np.int64)
    master_of = assign_masters_for_vertex_cut(graph, edge_node, num_nodes,
                                              seed=seed)
    part = VertexCutPartitioning(num_nodes=num_nodes, edge_node=edge_node,
                                 master_of=master_of, strategy="random")
    part.validate(graph)
    return part

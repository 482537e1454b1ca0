"""Hybrid-cut — PowerLyra's differentiated partitioning [13].

Hybrid-cut treats skewed graphs differently by vertex *in-degree*:

* a **low-degree** vertex keeps all of its in-edges on one node (its
  hash node), edge-cut style, so its gather is entirely local;
* a **high-degree** vertex (in-degree above the threshold) has its
  in-edges distributed by the *source* endpoint's hash, vertex-cut
  style, so no single node drowns in a celebrity's fan-in.

This gives the lowest replication factor of the three vertex-cuts (5.56
for Twitter on 50 nodes, Fig. 14a) and is the paper's default for the
PowerLyra experiments — also the *worst case* for Imitator, since fewer
existing replicas are available for fault tolerance (Section 6.10).
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


def hybrid_cut(graph: Graph, num_nodes: int, seed: int = 0,
               threshold: int = 100) -> VertexCutPartitioning:
    """PowerLyra hybrid-cut with the standard in-degree threshold.

    ``threshold`` is PowerLyra's default of 100; the scaled stand-in
    graphs keep enough >100-in-degree vertices for the differentiation
    to matter.
    """
    if num_nodes < 1:
        raise PartitionError("num_nodes must be >= 1")
    if threshold < 0:
        raise PartitionError("threshold must be >= 0")
    in_deg = graph.in_degrees()
    high = in_deg > threshold
    vhash = (stable_hash_array(np.arange(graph.num_vertices), seed)
             % num_nodes).astype(np.int64)
    src, dst = graph.sources, graph.targets
    edge_node = np.where(high[dst], vhash[src], vhash[dst])
    master_of = assign_masters_for_vertex_cut(graph, edge_node, num_nodes,
                                              seed=seed)
    part = VertexCutPartitioning(num_nodes=num_nodes, edge_node=edge_node,
                                 master_of=master_of, strategy="hybrid")
    part.validate(graph)
    return part

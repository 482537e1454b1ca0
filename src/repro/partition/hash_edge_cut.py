"""Hash-based (random) edge-cut — the Cyclops/Hama default.

Vertices are spread by a stable hash, which balances vertex counts well
on natural graphs and is the paper's default partitioning for the
edge-cut experiments (Sections 3.1, 6.2-6.9).
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.partition.base import EdgeCutPartitioning
from repro.utils.hashing import stable_hash_array


def hash_edge_cut(graph: Graph, num_nodes: int,
                  seed: int = 0) -> EdgeCutPartitioning:
    """Assign each vertex to ``hash(v) mod num_nodes``."""
    master_of = (stable_hash_array(np.arange(graph.num_vertices), seed)
                 % num_nodes).astype(np.int64)
    part = EdgeCutPartitioning(num_nodes=num_nodes, master_of=master_of,
                               strategy="hash")
    part.validate(graph)
    return part

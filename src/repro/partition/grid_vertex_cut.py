"""Grid (constrained) vertex-cut — GraphBuilder's 2-D scheme [23].

Nodes are arranged in an r x c grid.  Each vertex hashes to one grid
cell and its *constraint set* is that cell's full row and column; an
edge must land in the intersection of its endpoints' constraint sets,
which is always non-empty (>= 2 cells in a proper grid).  This caps any
vertex's replica spread at r + c - 1 nodes, giving a replication factor
between random's and hybrid's (8.34 for Twitter on 50 nodes, Fig. 14a).
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


def _grid_shape(num_nodes: int) -> tuple[int, int]:
    """Pick the most square r x c factorisation of ``num_nodes``."""
    best = (1, num_nodes)
    for rows in range(1, int(num_nodes ** 0.5) + 1):
        if num_nodes % rows == 0:
            best = (rows, num_nodes // rows)
    return best


def grid_vertex_cut(graph: Graph, num_nodes: int,
                    seed: int = 0) -> VertexCutPartitioning:
    """Constrained 2-D grid placement of edges."""
    if num_nodes < 1:
        raise PartitionError("num_nodes must be >= 1")
    rows, cols = _grid_shape(num_nodes)
    # Vertex -> home cell.
    home = (stable_hash_array(np.arange(graph.num_vertices), seed)
            % num_nodes).astype(np.int64)
    home_r, home_c = np.divmod(home, cols)
    src, dst = graph.sources, graph.targets
    # Constraint sets: row+column of each endpoint's home cell.  The
    # canonical intersection contains the two "cross" cells
    # (row_u x col_v) and (row_v x col_u); pick deterministically.
    cell_a = home_r[src] * cols + home_c[dst]
    cell_b = home_r[dst] * cols + home_c[src]
    pick = stable_hash_array(src * 2_000_003 + dst, seed + 1) & 1
    edge_node = np.where(pick == 0, cell_a, cell_b)
    master_of = assign_masters_for_vertex_cut(graph, edge_node, num_nodes,
                                              seed=seed)
    part = VertexCutPartitioning(num_nodes=num_nodes, edge_node=edge_node,
                                 master_of=master_of, strategy="grid")
    part.validate(graph)
    return part

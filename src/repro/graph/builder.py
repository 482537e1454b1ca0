"""Incremental graph construction with de-duplication.

Generators and file loaders accumulate edges here; :meth:`build` sorts,
optionally removes duplicate/self edges, and assembles the CSR
:class:`~repro.graph.graph.Graph`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph


class GraphBuilder:
    """Accumulates edges and produces an immutable :class:`Graph`."""

    def __init__(self, num_vertices: int = 0, name: str = "graph",
                 allow_self_loops: bool = False,
                 deduplicate: bool = True):
        self.num_vertices = num_vertices
        self.name = name
        self.allow_self_loops = allow_self_loops
        self.deduplicate = deduplicate
        self._src: list[int] = []
        self._dst: list[int] = []
        self._w: list[float] = []

    def add_vertex(self) -> int:
        """Allocate the next vertex id."""
        vid = self.num_vertices
        self.num_vertices += 1
        return vid

    def ensure_vertex(self, vid: int) -> None:
        """Grow the vertex space to include ``vid``."""
        if vid < 0:
            raise GraphError(f"negative vertex id: {vid}")
        if vid >= self.num_vertices:
            self.num_vertices = vid + 1

    def add_edge(self, src: int, dst: int, weight: float = 1.0) -> None:
        self.ensure_vertex(src)
        self.ensure_vertex(dst)
        if src == dst and not self.allow_self_loops:
            return
        self._src.append(src)
        self._dst.append(dst)
        self._w.append(weight)

    def add_edges(self, edges) -> None:
        """Bulk-add ``(src, dst)`` or ``(src, dst, weight)`` tuples."""
        for edge in edges:
            if len(edge) == 2:
                self.add_edge(edge[0], edge[1])
            else:
                self.add_edge(edge[0], edge[1], edge[2])

    def build(self) -> Graph:
        """Assemble the immutable graph (keeps the builder reusable)."""
        src = np.asarray(self._src, dtype=np.int64)
        dst = np.asarray(self._dst, dtype=np.int64)
        w = np.asarray(self._w, dtype=np.float64)
        if self.deduplicate and src.size:
            # Keep the first occurrence of each (src, dst) pair.
            keys = src * max(1, self.num_vertices) + dst
            _, first_idx = np.unique(keys, return_index=True)
            first_idx.sort()
            src, dst, w = src[first_idx], dst[first_idx], w[first_idx]
        return Graph(self.num_vertices, src, dst, w, name=self.name)

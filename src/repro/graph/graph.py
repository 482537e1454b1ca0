"""Immutable directed graph in compressed-sparse-row form.

Vertices are dense integers ``0..num_vertices-1``.  Both directions are
indexed (CSR by source and CSC by target) because edge-cut systems
gather along in-edges while partitioners stream edges by source.  Edge
weights are optional; unweighted graphs report weight 1.0.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import GraphError


class Graph:
    """A frozen directed multigraph-free graph with optional weights."""

    def __init__(self, num_vertices: int, sources: np.ndarray,
                 targets: np.ndarray, weights: np.ndarray | None = None,
                 name: str = "graph"):
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape:
            raise GraphError("sources and targets must have equal length")
        if sources.size and (sources.min() < 0
                             or sources.max() >= num_vertices):
            raise GraphError("edge source out of range")
        if targets.size and (targets.min() < 0
                             or targets.max() >= num_vertices):
            raise GraphError("edge target out of range")
        if weights is None:
            weights = np.ones(sources.shape, dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != sources.shape:
                raise GraphError("weights must match edge count")
        self.name = name
        self.num_vertices = int(num_vertices)
        # Sort edges by (source, target) for the CSR index; keep the
        # permutation so the CSC index can refer back to edge ids.
        order = np.lexsort((targets, sources))
        self._src = sources[order]
        self._dst = targets[order]
        self._w = weights[order]
        self._out_offsets = self._build_offsets(self._src)
        # CSC (by target): a permutation of edge ids sorted by target.
        csc_order = np.lexsort((self._src, self._dst))
        self._in_edge_ids = csc_order
        self._in_offsets = self._build_offsets(self._dst[csc_order])

    def _build_offsets(self, sorted_keys: np.ndarray) -> np.ndarray:
        counts = np.bincount(sorted_keys, minlength=self.num_vertices) \
            if sorted_keys.size else np.zeros(self.num_vertices, dtype=np.int64)
        offsets = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return offsets

    # -- basic properties ----------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self._src.size)

    @property
    def sources(self) -> np.ndarray:
        """Edge sources, sorted by (source, target); read-only view."""
        return self._src

    @property
    def targets(self) -> np.ndarray:
        return self._dst

    @property
    def weights(self) -> np.ndarray:
        return self._w

    # -- adjacency ---------------------------------------------------------

    def out_degree(self, v: int) -> int:
        return int(self._out_offsets[v + 1] - self._out_offsets[v])

    def in_degree(self, v: int) -> int:
        return int(self._in_offsets[v + 1] - self._in_offsets[v])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self._out_offsets)

    def in_degrees(self) -> np.ndarray:
        return np.diff(self._in_offsets)

    def out_edge_ids(self, v: int) -> np.ndarray:
        """Edge ids with source ``v`` (ids index sources/targets/weights)."""
        return np.arange(self._out_offsets[v], self._out_offsets[v + 1])

    def in_edge_ids(self, v: int) -> np.ndarray:
        """Edge ids with target ``v``."""
        return self._in_edge_ids[self._in_offsets[v]:self._in_offsets[v + 1]]

    @property
    def out_offsets(self) -> np.ndarray:
        """The out-CSR's row pointer: ``v``'s out-edges are the ids
        ``out_offsets[v]:out_offsets[v + 1]``; read-only view."""
        return self._out_offsets

    def out_neighbors(self, v: int) -> np.ndarray:
        return self._dst[self._out_offsets[v]:self._out_offsets[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        ids = self.in_edge_ids(v)
        return self._src[ids]

    def edge(self, edge_id: int) -> tuple[int, int, float]:
        return (int(self._src[edge_id]), int(self._dst[edge_id]),
                float(self._w[edge_id]))

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate ``(source, target, weight)`` in (source, target) order."""
        for i in range(self.num_edges):
            yield (int(self._src[i]), int(self._dst[i]), float(self._w[i]))

    # -- derived graphs -----------------------------------------------------

    def with_weights(self, weights: np.ndarray) -> "Graph":
        """Return a copy of this graph with new edge weights.

        ``weights`` must be aligned with this graph's edge-id order.
        """
        return Graph(self.num_vertices, self._src.copy(), self._dst.copy(),
                     np.asarray(weights, dtype=np.float64).copy(),
                     name=self.name)

    def reversed(self) -> "Graph":
        """Return the transpose graph (every edge flipped)."""
        return Graph(self.num_vertices, self._dst.copy(), self._src.copy(),
                     self._w.copy(), name=f"{self.name}-rev")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Graph(name={self.name!r}, |V|={self.num_vertices}, "
                f"|E|={self.num_edges})")

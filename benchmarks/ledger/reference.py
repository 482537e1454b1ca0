"""Independent numpy references the program's outputs are checked
against, and the digest used for bit-equality between runs."""

from __future__ import annotations

import hashlib

import numpy as np


def values_array(values: dict, num_vertices: int) -> np.ndarray:
    return np.fromiter((values[gid] for gid in range(num_vertices)),
                       dtype=np.float64, count=num_vertices)


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


def _pagerank(graph, iterations: int, damping: float = 0.85) -> np.ndarray:
    src, dst = graph.sources, graph.targets
    out_deg = graph.out_degrees().astype(np.float64)
    rank = np.ones(graph.num_vertices)
    for _ in range(iterations):
        acc = np.bincount(dst, weights=rank[src] / out_deg[src],
                          minlength=graph.num_vertices)
        rank = (1.0 - damping) + damping * acc
    return rank


def _sssp(graph, source: int) -> np.ndarray:
    src, dst, weight = graph.sources, graph.targets, graph.weights
    dist = np.full(graph.num_vertices, np.inf)
    dist[source] = 0.0
    while True:
        relaxed = dist.copy()
        np.minimum.at(relaxed, dst, dist[src] + weight)
        if np.array_equal(relaxed, dist):
            return dist
        dist = relaxed


def matches_reference(values: np.ndarray, graph, spec) -> bool:
    """PageRank sums in another order than the engine, so it gets a
    tolerance fixed from float64; SSSP over unit weights is exact."""
    if spec.algorithm == "pagerank":
        return bool(np.allclose(values, _pagerank(graph, spec.max_iterations),
                                rtol=1e-9, atol=0.0))
    if spec.algorithm == "sssp":
        source = dict(spec.algorithm_kwargs)["source"]
        return bool(np.array_equal(values, _sssp(graph, source)))
    raise ValueError(f"no reference for {spec.algorithm!r}")

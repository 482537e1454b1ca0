"""Partitioning quality metrics (replication factor, balance).

Replication factor lambda is the paper's headline partitioning metric
(Figs. 10a, 14a): the average number of copies (master + replicas) each
vertex has across the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.partition.base import EdgeCutPartitioning, replica_pairs


def replication_factor(graph: Graph, partitioning) -> float:
    """Average copies per vertex (lambda in the partitioning papers): the
    master plus every computation replica."""
    if graph.num_vertices == 0:
        return 0.0
    vertex, _ = replica_pairs(graph, partitioning)
    return (graph.num_vertices + vertex.size) / graph.num_vertices


def vertex_balance(graph: Graph, partitioning) -> float:
    """Max/mean ratio of master-vertex counts across nodes."""
    counts = np.bincount(np.asarray(partitioning.master_of),
                         minlength=partitioning.num_nodes)
    mean = counts.mean()
    return float(counts.max() / mean) if mean > 0 else 1.0


def edge_balance(graph: Graph, partitioning) -> float:
    """Max/mean ratio of edge counts across nodes."""
    if isinstance(partitioning, EdgeCutPartitioning):
        master_of = np.asarray(partitioning.master_of)
        counts = np.bincount(master_of[graph.targets],
                             minlength=partitioning.num_nodes)
    else:
        counts = np.bincount(np.asarray(partitioning.edge_node),
                             minlength=partitioning.num_nodes)
    mean = counts.mean()
    return float(counts.max() / mean) if mean > 0 else 1.0


@dataclass(frozen=True)
class PartitionReport:
    """Summary row for the partitioning benchmarks."""

    strategy: str
    num_nodes: int
    replication_factor: float
    vertex_balance: float
    edge_balance: float


def report(graph: Graph, partitioning) -> PartitionReport:
    return PartitionReport(
        strategy=partitioning.strategy,
        num_nodes=partitioning.num_nodes,
        replication_factor=replication_factor(graph, partitioning),
        vertex_balance=vertex_balance(graph, partitioning),
        edge_balance=edge_balance(graph, partitioning),
    )

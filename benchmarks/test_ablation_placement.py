"""Ablations for Imitator's two placement heuristics (Section 4).

Not a paper figure — these benches justify design choices DESIGN.md
calls out:

* **FT-replica placement** — the randomized power-of-choices heuristic
  ("select several candidates at random, choose with more detailed
  information") vs naive uniform-random placement: the heuristic should
  balance total copies per node better.
* **Mirror election** — the greedy least-mirrors-per-machine election
  vs always picking the first replica node: the greedy spread lets more
  nodes participate in recovery, shrinking the largest per-node
  recovery burden.
"""

from __future__ import annotations

import numpy as np
from _harness import NUM_NODES, print_table

from repro.config import FaultToleranceConfig, FTMode
from repro.datasets import load
from repro.ft.replication import plan_replication
from repro.partition import hash_edge_cut


def _copies_per_node(plan) -> np.ndarray:
    return (np.bincount(plan.master_of, minlength=NUM_NODES)
            + np.bincount(plan.replica_nodes.nodes, minlength=NUM_NODES))


def _mirrors_per_node(plan) -> np.ndarray:
    return np.bincount(plan.mirror_nodes.nodes, minlength=NUM_NODES)


def test_ablation_ft_placement(benchmark):
    """Power-of-choices placement vs blind random (candidates=1)."""
    rows = []

    def experiment():
        graph = load("gweb")  # the dataset with the most FT replicas
        part = hash_edge_cut(graph, NUM_NODES)
        for label, candidates in (("random (1 candidate)", 1),
                                  ("power-of-3 (paper)", 3),
                                  ("power-of-8", 8)):
            cfg = FaultToleranceConfig(mode=FTMode.REPLICATION,
                                       ft_level=1,
                                       placement_candidates=candidates)
            plan = plan_replication(graph, part, cfg)
            counts = _copies_per_node(plan)
            rows.append([label, int(counts.max()),
                         float(counts.max() / counts.mean()),
                         float(counts.std())])
        return rows

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table("Ablation: FT-replica placement (GWeb, copies per node)",
                ["policy", "max copies", "max/mean", "stddev"], rows)
    blind, power3, power8 = rows
    # More candidates -> tighter balance (never worse).
    assert power3[3] <= blind[3] * 1.02
    assert power8[3] <= power3[3] * 1.05


def test_ablation_mirror_election(benchmark):
    """Greedy least-loaded mirror election vs first-replica election."""
    rows = []

    def experiment():
        graph = load("ljournal")
        part = hash_edge_cut(graph, NUM_NODES)
        cfg = FaultToleranceConfig(mode=FTMode.REPLICATION, ft_level=1)
        plan = plan_replication(graph, part, cfg)
        greedy = _mirrors_per_node(plan)

        # Naive baseline: the first (lowest-id) replica node is always
        # the mirror.
        naive = np.zeros(NUM_NODES, dtype=np.int64)
        for v in range(graph.num_vertices):
            fts, replicas = plan.ft_nodes[v], plan.replica_nodes[v]
            if replicas.size:
                naive[fts[0] if fts.size else replicas[0]] += 1
        for label, counts in (("greedy (paper)", greedy),
                              ("first-replica", naive)):
            rows.append([label, int(counts.max()),
                         float(counts.max() / max(1e-9, counts.mean()))])
        return rows

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(
        "Ablation: mirror election (LJournal, mirrors per node)",
        ["policy", "max mirrors on one node", "max/mean"], rows)
    greedy_row, naive_row = rows
    # The greedy election spreads mirrors at least as evenly; the max
    # per-node recovery burden bounds Migration's critical path.
    assert greedy_row[1] <= naive_row[1]
    assert greedy_row[2] <= naive_row[2] * 1.02

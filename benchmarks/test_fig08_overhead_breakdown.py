"""Fig. 8 — where Imitator's (tiny) overhead comes from.

(a) extra FT replicas as a share of all replicas — paper: at most
    0.12% once selfish vertices are optimised;
(b) extra messages relative to BASE, with and without the
    selfish-vertex optimisation — paper: <=2.92% without, <0.1% with.
"""

from __future__ import annotations

from _harness import print_table, run

from repro.config import FaultToleranceConfig, FTMode
from repro.datasets import CYCLOPS_WORKLOADS, load
from repro.ft.replication import plan_replication
from repro.partition import hash_edge_cut

PAGERANK_SETS = [(a, d) for a, d in CYCLOPS_WORKLOADS if a == "pagerank"]


def test_fig08a_extra_replicas(benchmark):
    rows = []

    def experiment():
        for _, dataset in CYCLOPS_WORKLOADS:
            graph = load(dataset)
            part = hash_edge_cut(graph, 50)
            cfg = FaultToleranceConfig(mode=FTMode.REPLICATION, ft_level=1)
            plan = plan_replication(graph, part, cfg)
            total = plan.replica_nodes.nodes.size
            with_selfish = plan.total_ft_replicas() / max(1, total)
            sans_selfish = int(plan.ft_nodes.lengths[~plan.selfish].sum()
                               ) / max(1, total)
            rows.append([dataset, with_selfish, sans_selfish])
        return rows

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(
        "Fig. 8a: extra FT replicas / all replicas",
        ["dataset", "w/o selfish opt", "w/ selfish opt"],
        [[d, f"{a:.3%}", f"{b:.3%}"] for d, a, b in rows])
    for _, with_selfish, sans_selfish in rows:
        assert sans_selfish <= with_selfish
        assert sans_selfish < 0.02  # paper: max 0.12%


def test_fig08b_extra_messages(benchmark):
    rows = []

    def experiment():
        for algorithm, dataset in PAGERANK_SETS:
            _, base = run(dataset, algorithm=algorithm, ft="none")
            _, opt_on = run(dataset, algorithm=algorithm,
                            ft="replication", selfish_optimization=True)
            _, opt_off = run(dataset, algorithm=algorithm,
                             ft="replication", selfish_optimization=False)
            rows.append([dataset,
                         opt_off.total_messages / base.total_messages - 1.0,
                         opt_on.total_messages / base.total_messages - 1.0])
        return rows

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(
        "Fig. 8b: extra messages over BASE (PageRank)",
        ["dataset", "w/o selfish opt", "w/ selfish opt"],
        [[d, f"{a:.3%}", f"{b:.3%}"] for d, a, b in rows])
    for dataset, without, with_opt in rows:
        assert with_opt <= without
        assert with_opt < 0.01, f"{dataset}: optimised overhead too high"
        assert without < 0.25

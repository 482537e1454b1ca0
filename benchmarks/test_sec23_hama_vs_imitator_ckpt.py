"""Section 2.3 — Imitator-CKPT vs Hama's stock checkpoint.

The paper's footnote-level but load-bearing claim: Imitator-CKPT (the
near-optimal baseline used throughout the evaluation) is *several times
faster than Hama's default checkpoint mechanism — up to 6.5x for the
Wiki dataset* — because vertex replication lets it skip the in-flight
messages that a pure message-passing snapshot must persist.

This bench runs the same PageRank workload on the Pregel/Hama
message-passing engine (message-inclusive snapshots) and on the
replication engine with Imitator-CKPT (vertex-state-only snapshots) and
compares per-checkpoint cost and bytes.
"""

from __future__ import annotations

from _harness import NUM_NODES, print_table, run

from benchmarks.hama import MessagePassingPageRank, PregelEngine
from repro.datasets import CATALOG, load

DATASETS = ("gweb", "ljournal", "wiki")


def test_sec23_hama_vs_imitator_ckpt(benchmark):
    rows = []

    def experiment():
        for dataset in DATASETS:
            graph = load(dataset)
            scale = float(CATALOG[dataset].scale)
            hama = PregelEngine(graph, MessagePassingPageRank(),
                                num_nodes=NUM_NODES,
                                checkpoint_interval=1, data_scale=scale)
            hama_result = hama.run(4)
            hama_ckpt_s = (sum(s.checkpoint_s for s in
                               hama_result.iteration_stats)
                           / len(hama_result.iteration_stats))
            _, imitator = run(dataset, ft="checkpoint", iterations=4)
            imitator_ckpt_s = (sum(s.checkpoint_s for s in
                                   imitator.iteration_stats)
                               / len(imitator.iteration_stats))
            rows.append([dataset, hama_ckpt_s, imitator_ckpt_s,
                         hama_ckpt_s / imitator_ckpt_s])
        return rows

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(
        "Section 2.3: per-checkpoint cost, Hama vs Imitator-CKPT "
        "(seconds)",
        ["dataset", "Hama (msgs+values)", "Imitator-CKPT (values)",
         "speedup"],
        rows)
    by_name = {row[0]: row for row in rows}
    # Imitator-CKPT is always faster...
    for dataset, hama_s, imit_s, speedup in rows:
        assert speedup > 1.2, f"{dataset}: speedup {speedup:.2f}"
    # ...and the advantage peaks on the densest dataset (Wiki, where
    # messages outnumber vertices ~18:1; paper: up to 6.5x there).
    assert by_name["wiki"][3] >= by_name["gweb"][3]
    assert by_name["wiki"][3] > 2.0

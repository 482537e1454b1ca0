"""Fig. 2 — the cost of checkpoint-based fault tolerance.

(a) one checkpoint vs one iteration for every workload of Table 1;
(b) overall overhead of checkpoint intervals 1/2/4 for PageRank on
    LJournal (paper: 89%, 51%, 26%);
(c) the recovery-time breakdown (reload / reconstruct / replay) against
    one iteration's runtime.
"""

from __future__ import annotations

from _harness import print_table, run

from repro.datasets import CYCLOPS_WORKLOADS


def test_fig02a_checkpoint_vs_iteration(benchmark):
    rows = []

    def experiment():
        for algorithm, dataset in CYCLOPS_WORKLOADS:
            _, result = run(dataset, algorithm=algorithm, ft="checkpoint",
                            iterations=4)
            iter_s = result.avg_iteration_time_s()
            ckpt_s = (sum(s.checkpoint_s for s in result.iteration_stats)
                      / len(result.iteration_stats))
            rows.append([algorithm, dataset, iter_s, ckpt_s,
                         ckpt_s / iter_s])
        return rows

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(
        "Fig. 2a: cost of one checkpoint vs one iteration (seconds)",
        ["algorithm", "dataset", "iteration", "checkpoint", "ratio"],
        rows)
    # Paper: even the best case pays >55% of an iteration per
    # checkpoint; most pay multiples.
    assert all(row[4] > 0.55 for row in rows)
    assert sum(1 for row in rows if row[4] > 1.0) >= 4


def test_fig02b_interval_sweep(benchmark):
    rows = []

    def experiment():
        _, base = run("ljournal", ft="none", iterations=8)
        base_time = base.execution_time_s()
        for interval in (1, 2, 4):
            _, result = run("ljournal", ft="checkpoint", iterations=8,
                            checkpoint_interval=interval)
            overhead = result.execution_time_s() / base_time - 1.0
            rows.append([f"interval={interval}", overhead])
        return rows

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table("Fig. 2b: CKPT overall overhead, PageRank/LJournal",
                ["config", "overhead"],
                [[label, f"{100 * oh:.1f}%"] for label, oh in rows])
    overheads = [oh for _, oh in rows]
    # Paper: 89% / 51% / 26% — halving the frequency roughly halves the
    # overhead, and interval=1 costs tens of percent at least.
    assert overheads[0] > overheads[1] > overheads[2]
    assert overheads[0] > 0.25
    assert overheads[0] > 2.5 * overheads[2]


def test_fig02c_recovery_breakdown(benchmark):
    out = {}

    def experiment():
        _, base = run("ljournal", ft="none", iterations=4)
        _, result = run("ljournal", ft="checkpoint", iterations=6,
                        checkpoint_interval=4, failures=((5, (5,)),))
        out["iter_s"] = base.avg_iteration_time_s()
        out["stats"] = result.recoveries[0]
        return out

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    stats = out["stats"]
    replay_s = stats.replayed_iterations * out["iter_s"]
    print_table(
        "Fig. 2c: CKPT recovery breakdown, PageRank/LJournal (seconds)",
        ["phase", "seconds"],
        [["one iteration (reference)", out["iter_s"]],
         ["reload", stats.reload_s],
         ["reconstruct", stats.reconstruct_s],
         ["replay (lost iterations)", replay_s],
         ["total", stats.reload_s + stats.reconstruct_s + replay_s]])
    # Paper: reloading from persistent storage dominates recovery, and
    # recovery dwarfs a single iteration.
    assert stats.reload_s > stats.reconstruct_s
    assert stats.reload_s + stats.reconstruct_s + replay_s \
        > 2 * out["iter_s"]
    assert stats.replayed_iterations > 0

"""Fig. 12 — case study: PageRank on LJournal, 20 iterations, one
failure between iteration 6 and 7.

The paper's timeline: ~7 s to detect the failure in every scheme;
Migration recovers in ~2.6 s, Rebirth in ~8.8 s, CKPT/4 in ~45 s and
then replays 2 lost iterations.  After recovery Rebirth resumes at full
speed while Migration runs slightly slower (one machine less).
"""

from __future__ import annotations

from _harness import print_table, run


ITERS = 20
CKPT_INTERVAL = 4
#: Crash right after iteration 6 commits, detected leaving the barrier.
FAILURE = ((6, (5,), "after_commit"),)


def timeline(result):
    """(iteration, sim-clock at barrier) series for plotting."""
    return [(s.iteration, s.sim_clock_s) for s in result.iteration_stats]


def test_fig12_case_study(benchmark):
    out = {}

    def experiment():
        _, base = run("ljournal", ft="none", iterations=ITERS)
        _, rep_reb = run("ljournal", ft="replication", recovery="rebirth",
                         iterations=ITERS, failures=FAILURE)
        _, rep_mig = run("ljournal", ft="replication",
                         recovery="migration", iterations=ITERS,
                         failures=FAILURE)
        _, ckpt = run("ljournal", ft="checkpoint",
                      checkpoint_interval=CKPT_INTERVAL, iterations=ITERS,
                      failures=FAILURE)
        out.update(base=base, reb=rep_reb, mig=rep_mig, ckpt=ckpt)
        return out

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    base, reb, mig, ckpt = out["base"], out["reb"], out["mig"], out["ckpt"]

    rows = []
    for label, result in (("BASE", base), ("REP+Rebirth", reb),
                          ("REP+Migration", mig),
                          (f"CKPT/{CKPT_INTERVAL}", ckpt)):
        recovery = result.recoveries[0] if result.recoveries else None
        rows.append([
            label,
            result.iteration_stats[-1].sim_clock_s,
            recovery.detection_s if recovery else 0.0,
            recovery.total_s if recovery else 0.0,
            recovery.replayed_iterations if recovery else 0,
        ])
    print_table(
        "Fig. 12: end-to-end timeline, PageRank/LJournal, failure @ it.6",
        ["config", "finish (s)", "detection (s)", "recovery (s)",
         "replayed iters"], rows)
    print("timeline (iteration, sim-clock):")
    for label, result in (("REB", reb), ("MIG", mig), ("CKPT", ckpt)):
        points = timeline(result)
        marks = ", ".join(f"{i}:{t:.0f}" for i, t in points[::4])
        print(f"  {label:5s} {marks}")

    reb_rec = reb.recoveries[0]
    mig_rec = mig.recoveries[0]
    ckpt_rec = ckpt.recoveries[0]
    # Detection spans ~7 s in every scheme.
    for rec in (reb_rec, mig_rec, ckpt_rec):
        assert abs(rec.detection_s - 7.0) < 0.5
    # Migration recovers fastest, CKPT slowest by a wide margin.
    assert mig_rec.total_s < reb_rec.total_s
    ckpt_total = (ckpt_rec.total_s + ckpt_rec.replayed_iterations
                  * ckpt.avg_iteration_time_s())
    assert ckpt_total > 3 * reb_rec.total_s
    # CKPT/4 replays 2 lost iterations, exactly as the paper reports
    # ("it still has to replay 2 lost iterations"): the last snapshot
    # covers iterations 0-3, iterations 4-5 are lost, and the crashed
    # iteration 6 is re-executed either way.
    assert ckpt_rec.replayed_iterations == 2
    # Post-recovery pace: Migration's per-iteration time is no faster
    # than Rebirth's (one machine fewer), and both finish near BASE +
    # detection + recovery.
    reb_tail = [s.sim_time_s for s in reb.iteration_stats[-5:]]
    mig_tail = [s.sim_time_s for s in mig.iteration_stats[-5:]]
    assert sum(mig_tail) >= sum(reb_tail) * 0.98
    base_finish = base.execution_time_s()
    assert reb.iteration_stats[-1].sim_clock_s < base_finish + 30

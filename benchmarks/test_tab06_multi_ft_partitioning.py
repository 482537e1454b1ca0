"""Table 6 — execution time and communication cost per iteration for
FT/1..3 across partitioning algorithms (PageRank on Twitter).

Paper: runtime overhead at FT/3 is 1.14% (random), 2.27% (grid) and
4.69% (hybrid); communication overhead reaches 21.49% for hybrid at
FT/3 but the *absolute* communication of hybrid stays far below
random's (0.26 GB vs 1.91 GB per iteration), so fault tolerance never
changes which partitioning wins.
"""

from __future__ import annotations

from _harness import print_table, run


CUTS = ("random_vertex_cut", "grid_vertex_cut", "hybrid_cut")
SHORT = {"random_vertex_cut": "random", "grid_vertex_cut": "grid",
         "hybrid_cut": "hybrid"}
LEVELS = (0, 1, 2, 3)


def comm_gb_per_iter(result) -> float:
    iters = max(1, len(result.iteration_stats))
    scale = 5000  # Twitter stand-in downscale factor
    return result.total_bytes * scale / iters / 2**30


def test_tab06_ft_levels_vs_partitioning(benchmark):
    time_rows = []
    comm_rows = []

    def experiment():
        for cut in CUTS:
            times = []
            comms = []
            for level in LEVELS:
                if level == 0:
                    _, result = run("twitter", ft="none", partition=cut,
                                    iterations=3)
                else:
                    _, result = run("twitter", ft="replication",
                                    partition=cut, ft_level=level,
                                    iterations=3)
                times.append(result.execution_time_s())
                comms.append(comm_gb_per_iter(result))
            time_rows.append([SHORT[cut]] + times)
            comm_rows.append([SHORT[cut]] + comms)
        return time_rows

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(
        "Table 6 (top): execution time (s) vs FT level (Twitter)",
        ["partitioning", "w/o FT", "FT/1", "FT/2", "FT/3"], time_rows)
    print_table(
        "Table 6 (bottom): communication (GB/iter) vs FT level",
        ["partitioning", "w/o FT", "FT/1", "FT/2", "FT/3"], comm_rows)

    by_name_t = {row[0]: row[1:] for row in time_rows}
    by_name_c = {row[0]: row[1:] for row in comm_rows}
    for cut in ("random", "grid", "hybrid"):
        times = by_name_t[cut]
        comms = by_name_c[cut]
        # Monotone growth with the FT level, but bounded overhead.
        assert times[0] <= times[3] * 1.02
        assert (times[3] - times[0]) / times[0] < 0.15
        assert comms[0] < comms[1] < comms[2] < comms[3]
    # Hybrid's *relative* FT overhead is the largest (fewest existing
    # replicas), random's the smallest.
    rel = {cut: (by_name_c[cut][3] - by_name_c[cut][0])
           / by_name_c[cut][0] for cut in by_name_c}
    assert rel["hybrid"] > rel["grid"] > rel["random"]
    # But absolute communication: hybrid stays the cheapest even at
    # FT/3 — fault tolerance does not change the partitioning choice.
    assert by_name_c["hybrid"][3] < by_name_c["random"][0]

"""Table 7 — total cluster memory vs partitioning and FT level
(PageRank on Twitter, vertex-cut).

Paper: vertex-cut replicates no edges, so FT memory overhead is tiny
relative to the replication-factor growth — at FT/3 only +0.14%
(random), +0.26% (grid), +1.87% (hybrid).
"""

from __future__ import annotations

from _harness import print_table, run


CUTS = ("random_vertex_cut", "grid_vertex_cut", "hybrid_cut")
SHORT = {"random_vertex_cut": "random", "grid_vertex_cut": "grid",
         "hybrid_cut": "hybrid"}


def test_tab07_memory(benchmark):
    rows = []

    def experiment():
        for cut in CUTS:
            engine, _ = run("twitter", ft="none", partition=cut,
                            iterations=3)
            base = sum(engine.memory_report().values())
            row = [SHORT[cut], base / 2**20]
            for level in (1, 2, 3):
                engine, _ = run("twitter", ft="replication",
                                partition=cut, ft_level=level,
                                iterations=3)
                mem = sum(engine.memory_report().values())
                row.append(100 * (mem / base - 1.0))
            rows.append(row)
        return rows

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(
        "Table 7: cluster memory (Twitter); FT columns are % over BASE",
        ["partitioning", "BASE (MB)", "FT/1 +%", "FT/2 +%", "FT/3 +%"],
        rows)

    by_name = {row[0]: row for row in rows}
    for cut in ("random", "grid", "hybrid"):
        base_mb, ft1, ft2, ft3 = by_name[cut][1:]
        # Monotone, and small even at FT/3 (paper max: 1.87%; the
        # stand-in scale amplifies per-vertex metadata relative to
        # per-edge data, so the band is wider here — see
        # EXPERIMENTS.md).
        assert 0 <= ft1 <= ft2 <= ft3
        assert ft3 < 12.0, f"{cut}: memory overhead {ft3:.2f}% too high"
    # Hybrid pays the largest relative FT memory overhead (fewest
    # pre-existing replicas), random the smallest.
    assert by_name["hybrid"][4] > by_name["random"][4]

"""Table 3 — memory consumption vs FT level (edge-cut, PageRank/Wiki).

Paper (jstat, one node): max usage grows 2.76 -> 3.70 -> 4.51 -> 4.91 GB
for w/o FT and FT/1..3 — modest, monotone growth.  We account resident
graph-state bytes per node (values, edges, replica metadata, the
mirrors' duplicated edge lists).
"""

from __future__ import annotations

from _harness import print_table, run



def test_tab03_memory_vs_ft_level(benchmark):
    rows = []

    def experiment():
        engine, _ = run("wiki", ft="none", iterations=4)
        per_node = max(engine.memory_report().values())
        rows.append(["w/o FT", per_node / 2**20,
                     sum(engine.memory_report().values()) / 2**20])
        for level in (1, 2, 3):
            engine, _ = run("wiki", ft="replication", ft_level=level,
                            iterations=4)
            per_node = max(engine.memory_report().values())
            rows.append([f"FT/{level}", per_node / 2**20,
                         sum(engine.memory_report().values()) / 2**20])
        return rows

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(
        "Table 3: graph-state memory, PageRank/Wiki (MB, simulated)",
        ["config", "max node MB", "cluster MB"], rows)
    totals = [row[2] for row in rows]
    # Monotone growth with the FT level...
    assert totals[0] < totals[1] < totals[2] < totals[3]
    # ...and the same modest magnitude as the paper's 2.76->4.91 GB
    # (a <2.5x ceiling for FT/3 over BASE under edge-cut, where mirrors
    # duplicate the masters' edge lists).
    assert totals[3] < 2.5 * totals[0]
    assert totals[1] < 1.8 * totals[0]

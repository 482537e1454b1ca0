"""Simulated-time semantics: monotone clocks, recovery accounting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_job
from repro.ft.edge_ckpt import dedupe
from repro.graph import generators
from tests.reference.edge_ckpt import rows
from tests.test_edge_ckpt import edges


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(200, alpha=2.0, seed=87, avg_degree=5.0)


class TestClockMonotonicity:
    def test_iteration_clocks_increase(self, graph):
        result = run_job(graph, "pagerank", num_nodes=4, max_iterations=5)
        clocks = [s.sim_clock_s for s in result.iteration_stats]
        assert all(b > a for a, b in zip(clocks, clocks[1:]))
        assert all(s.sim_time_s > 0 for s in result.iteration_stats)

    def test_recovery_shows_up_as_a_time_gap(self, graph):
        clean = run_job(graph, "pagerank", num_nodes=4, max_iterations=6)
        failed = run_job(graph, "pagerank", num_nodes=4, max_iterations=6,
                         failures=[(3, [1], "after_commit")])
        assert failed.total_sim_time_s > clean.total_sim_time_s + 6.0
        stats = failed.recoveries[0]
        # The gap is at least detection + recovery.
        gap = failed.total_sim_time_s - clean.total_sim_time_s
        assert gap >= stats.detection_s * 0.9

    def test_recovery_total_composition(self, graph):
        result = run_job(graph, "pagerank", num_nodes=4, max_iterations=6,
                         failures=[(3, [1])])
        stats = result.recoveries[0]
        assert stats.total_s == pytest.approx(
            stats.reload_s + stats.reconstruct_s + stats.replay_s)
        assert stats.total_with_detection_s == pytest.approx(
            stats.total_s + stats.detection_s)

    def test_larger_data_scale_slower(self, graph):
        small = run_job(graph, "pagerank", num_nodes=4, max_iterations=3)
        big = run_job(graph, "pagerank", num_nodes=4, max_iterations=3,
                      data_scale=500.0)
        assert big.total_sim_time_s > small.total_sim_time_s

    def test_more_nodes_faster_iterations(self):
        """Parallel speedup: the per-iteration data terms shrink."""
        g = generators.power_law(3000, alpha=2.0, seed=3, avg_degree=8.0)
        few = run_job(g, "pagerank", num_nodes=2, max_iterations=2,
                      ft_mode="none", data_scale=100.0)
        many = run_job(g, "pagerank", num_nodes=16, max_iterations=2,
                       ft_mode="none", data_scale=100.0)
        assert many.avg_iteration_time_s() < few.avg_iteration_time_s()


class TestDedupeProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.floats(0.1, 10.0)), max_size=40))
    def test_dedupe_invariants(self, raw):
        records = rows(edges(*raw))
        deduped = rows(dedupe(edges(*raw)))
        keys = [(src, dst) for src, dst, _ in deduped]
        # No duplicates survive.
        assert len(keys) == len(set(keys))
        # Every surviving record carries the LAST weight seen.
        for src, dst, weight in deduped:
            last = [r for r in records if r[:2] == (src, dst)][-1]
            assert weight == last[2]
        # First-occurrence order is preserved.
        seen = []
        for r in records:
            if r[:2] not in seen:
                seen.append(r[:2])
        assert keys == seen

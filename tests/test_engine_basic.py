"""Engine tests: plumbing, correctness vs references, halting, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import make_engine, run_job
from repro.errors import EngineError, UnrecoverableFailureError
from repro.graph import generators

ALL_PARTITIONS = ["hash_edge_cut", "fennel_edge_cut", "random_vertex_cut",
                  "grid_vertex_cut", "hybrid_cut"]


def numpy_pagerank(graph, iterations, damping=0.85):
    n = graph.num_vertices
    out_deg = graph.out_degrees().astype(float)
    rank = np.ones(n)
    for _ in range(iterations):
        contrib = np.zeros(n)
        mass = np.where(out_deg > 0, rank / np.maximum(out_deg, 1), 0.0)
        np.add.at(contrib, graph.targets, mass[graph.sources])
        rank = (1 - damping) + damping * contrib
    return rank


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(250, alpha=2.0, seed=41, avg_degree=5.0,
                                selfish_frac=0.1)


class TestDegreePlumbing:
    @pytest.mark.parametrize("partition", ALL_PARTITIONS)
    def test_degree_program_one_step(self, graph, partition):
        result = run_job(graph, "degree", num_nodes=4, max_iterations=3,
                         partition=partition)
        # DegreeCount deactivates everything after one superstep.
        assert result.num_iterations == 1
        for v in range(graph.num_vertices):
            expected = sum(w for _, _, w in
                           [graph.edge(int(e))
                            for e in graph.in_edge_ids(v)])
            assert result.values[v] == pytest.approx(expected)


class TestPageRankCorrectness:
    @pytest.mark.parametrize("partition", ALL_PARTITIONS)
    def test_matches_numpy(self, graph, partition):
        result = run_job(graph, "pagerank", num_nodes=4, max_iterations=4,
                         partition=partition)
        ref = numpy_pagerank(graph, 4)
        got = np.array([result.values[v] for v in range(graph.num_vertices)])
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_single_node_cluster(self, graph):
        result = run_job(graph, "pagerank", num_nodes=1, max_iterations=3,
                         ft_mode="none", num_standby=0)
        ref = numpy_pagerank(graph, 3)
        got = np.array([result.values[v] for v in range(graph.num_vertices)])
        assert np.allclose(got, ref)

    def test_node_count_does_not_change_values(self, graph):
        a = run_job(graph, "pagerank", num_nodes=2, max_iterations=3)
        b = run_job(graph, "pagerank", num_nodes=7, max_iterations=3)
        for v in range(graph.num_vertices):
            assert a.values[v] == pytest.approx(b.values[v], rel=1e-12)


class TestActivationAndHalting:
    def test_sssp_halts(self):
        g = generators.chain(20, weighted=True, seed=1)
        result = run_job(g, "sssp", num_nodes=3, max_iterations=100,
                         algorithm_kwargs={"source": 0})
        assert result.halted_early
        assert result.num_iterations < 30

    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    def test_sssp_distances(self, partition):
        g = generators.chain(20, weighted=True, seed=1)
        result = run_job(g, "sssp", num_nodes=3, max_iterations=100,
                         partition=partition,
                         algorithm_kwargs={"source": 0})
        dist = 0.0
        assert result.values[0] == 0.0
        for i in range(19):
            dist += g.edge(i)[2]
            assert result.values[i + 1] == pytest.approx(dist)

    def test_unreachable_stays_infinite(self):
        g = generators.chain(5)
        result = run_job(g, "sssp", num_nodes=2, max_iterations=20,
                         algorithm_kwargs={"source": 2})
        assert result.values[0] == float("inf")
        assert result.values[4] == pytest.approx(2.0)

    def test_active_count_shrinks_for_sssp(self):
        g = generators.chain(30)
        result = run_job(g, "sssp", num_nodes=3, max_iterations=100,
                         algorithm_kwargs={"source": 0})
        actives = [s.active_masters for s in result.iteration_stats]
        assert max(actives) <= 3  # a travelling frontier of ~1 vertex

    def test_pagerank_never_halts(self, graph):
        result = run_job(graph, "pagerank", num_nodes=4, max_iterations=3)
        assert not result.halted_early
        assert result.num_iterations == 3


    def test_run_zero_iterations_runs_nothing(self):
        """``run(0)`` means zero supersteps, not "use the configured
        limit": only ``None`` defers to the config."""
        engine = make_engine(generators.ring(64), "pagerank", num_nodes=4,
                             max_iterations=5)
        initial = engine.values()
        result = engine.run(0)
        assert result.num_iterations == 0
        assert result.iteration_stats == []
        assert engine.committed_iteration == -1
        assert result.values == initial
        assert engine.run(2).num_iterations == 2
        assert engine.run().num_iterations == 5


class TestStatsAndReports:
    def test_iteration_stats_shape(self, graph):
        result = run_job(graph, "pagerank", num_nodes=4, max_iterations=3)
        assert len(result.iteration_stats) == 3
        for stat in result.iteration_stats:
            assert stat.messages > 0
            assert stat.sim_time_s > 0
        assert result.total_sim_time_s >= \
            result.iteration_stats[-1].sim_clock_s

    def test_memory_report_positive(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4)
        memory = engine.memory_report()
        assert set(memory) == {0, 1, 2, 3}
        assert all(v > 0 for v in memory.values())

    def test_construction_report_attached(self, graph):
        result = run_job(graph, "pagerank", num_nodes=4, max_iterations=1)
        assert result.construction is not None
        assert result.construction.num_vertices == graph.num_vertices


class TestFailureScheduling:
    def test_invalid_phase_rejected(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4)
        with pytest.raises(EngineError):
            engine.schedule_failure(1, [0], phase="bogus")

    def test_invalid_node_rejected(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4)
        with pytest.raises(EngineError):
            engine.schedule_failure(1, [99])

    def test_base_mode_crash_is_fatal(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4, ft_mode="none")
        engine.schedule_failure(1, [2])
        with pytest.raises(UnrecoverableFailureError):
            engine.run()


class TestExternalCrossValidation:
    def test_sssp_matches_scipy_dijkstra(self):
        """Full convergence cross-check against an independent solver."""
        scipy_sparse = pytest.importorskip("scipy.sparse")
        from scipy.sparse.csgraph import dijkstra
        g = generators.road_network(20, 20, seed=13)
        result = run_job(g, "sssp", num_nodes=6, max_iterations=200,
                         algorithm_kwargs={"source": 0})
        assert result.halted_early
        matrix = scipy_sparse.csr_matrix(
            (g.weights, (g.sources, g.targets)),
            shape=(g.num_vertices, g.num_vertices))
        ref = dijkstra(matrix, indices=0)
        got = np.array([result.values[v] for v in range(g.num_vertices)])
        assert np.allclose(got, ref)

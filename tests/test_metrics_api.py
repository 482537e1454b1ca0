"""Run-report and API façade tests."""

from __future__ import annotations

import pytest

from repro import FTMode, PartitionStrategy, make_engine, make_program, \
    run_job
from repro.algorithms import AlternatingLeastSquares, PageRank
from repro.errors import ConfigError
from repro.graph import generators


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(200, alpha=2.0, seed=17, avg_degree=5.0,
                                selfish_frac=0.1)


def overhead(base, ft) -> float:
    """Runtime overhead over BASE, as the paper's figures report it."""
    return ft.execution_time_s() / base.execution_time_s() - 1.0


def cluster_memory(engine) -> int:
    return sum(engine.memory_report().values())


class TestReports:
    def test_overhead_report(self, graph):
        base = run_job(graph, "pagerank", num_nodes=4, max_iterations=3,
                       ft_mode="none")
        rep = run_job(graph, "pagerank", num_nodes=4, max_iterations=3)
        assert overhead(base, rep) >= 0.0
        # Checkpoints included, recovery excluded.
        assert rep.execution_time_s() == pytest.approx(
            sum(s.sim_time_s for s in rep.iteration_stats))

    def test_replication_cheaper_than_checkpoint(self, graph):
        """The paper's headline: REP overhead tiny, CKPT large."""
        base = run_job(graph, "pagerank", num_nodes=4, max_iterations=3,
                       ft_mode="none")
        rep = run_job(graph, "pagerank", num_nodes=4, max_iterations=3)
        ckpt = run_job(graph, "pagerank", num_nodes=4, max_iterations=3,
                       ft_mode="checkpoint")
        rep_oh = overhead(base, rep)
        ckpt_oh = overhead(base, ckpt)
        assert rep_oh < 0.25
        assert ckpt_oh > 2 * rep_oh

    def test_message_overhead(self, graph):
        base = run_job(graph, "pagerank", num_nodes=4, max_iterations=3,
                       ft_mode="none")
        rep = run_job(graph, "pagerank", num_nodes=4, max_iterations=3)
        assert rep.total_messages / base.total_messages - 1.0 >= 0.0

    def test_memory_grows_with_ft_level(self, graph):
        mem = {}
        for level in (1, 3):
            engine = make_engine(graph, "pagerank", num_nodes=4,
                                 ft_level=level)
            mem[level] = cluster_memory(engine)
        base = make_engine(graph, "pagerank", num_nodes=4, ft_mode="none")
        mem[0] = cluster_memory(base)
        assert mem[0] < mem[1] < mem[3]


class TestApiFacade:
    def test_make_program_by_name(self, graph):
        program = make_program("pagerank", graph)
        assert isinstance(program, PageRank)

    def test_make_program_passthrough(self, graph):
        program = PageRank(damping=0.5)
        assert make_program(program, graph) is program

    def test_unknown_algorithm(self, graph):
        with pytest.raises(ConfigError):
            make_program("bogus", graph)

    def test_als_infers_user_count(self):
        g = generators.bipartite(40, 10, edges_per_user=3, seed=1)
        program = make_program("als", g)
        assert isinstance(program, AlternatingLeastSquares)
        assert program.num_users == g.num_vertices // 2

    def test_string_enums_accepted(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             ft_mode="replication", recovery="migration",
                             partition="grid_vertex_cut")
        assert engine.job.ft.mode is FTMode.REPLICATION
        assert engine.job.engine.partition is \
            PartitionStrategy.GRID_VERTEX_CUT

    def test_data_scale_builds_scaled_cluster(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             data_scale=100.0)
        assert engine.model.data_scale == 100.0

    def test_run_job_failure_tuples(self, graph):
        result = run_job(graph, "pagerank", num_nodes=4, max_iterations=4,
                         num_standby=2,
                         failures=[(1, [0]), (2, [1], "after_commit")])
        assert len(result.recoveries) == 2

    def test_scaled_times_exceed_unscaled(self, graph):
        small = run_job(graph, "pagerank", num_nodes=4, max_iterations=3,
                        ft_mode="none")
        big = run_job(graph, "pagerank", num_nodes=4, max_iterations=3,
                      ft_mode="none", data_scale=200.0)
        assert big.execution_time_s() > small.execution_time_s()

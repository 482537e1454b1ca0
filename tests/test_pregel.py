"""Pregel/Hama message-passing engine tests (the Section 2.3 baseline)."""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.hama import (
    MessagePassingPageRank,
    PregelEngine,
    PregelProgram,
)
from repro.api import run_job
from repro.errors import EngineError, UnrecoverableFailureError
from repro.graph import generators


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(250, alpha=2.0, seed=67, avg_degree=5.0)


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


class TestCorrectness:
    def test_matches_numpy(self, graph):
        engine = PregelEngine(graph, MessagePassingPageRank(), num_nodes=4)
        result = engine.run(5)
        # Pregel superstep 0 only seeds messages: 5 supersteps = 4
        # value updates.
        ref = numpy_pagerank(graph, 4)
        got = np.array([result.values[v] for v in range(graph.num_vertices)])
        assert np.allclose(got, ref, rtol=1e-12)

    def test_matches_replication_engine(self, graph):
        pregel = PregelEngine(graph, MessagePassingPageRank(),
                              num_nodes=4).run(5)
        rep = run_job(graph, "pagerank", num_nodes=4, max_iterations=4)
        for v in range(graph.num_vertices):
            assert pregel.values[v] == pytest.approx(rep.values[v],
                                                     rel=1e-12)

    def test_node_count_invariant(self, graph):
        a = PregelEngine(graph, MessagePassingPageRank(),
                         num_nodes=2).run(4)
        b = PregelEngine(graph, MessagePassingPageRank(),
                         num_nodes=7).run(4)
        for v in range(graph.num_vertices):
            assert a.values[v] == pytest.approx(b.values[v], rel=1e-12)

    def test_message_volume_tracks_edges(self, graph):
        engine = PregelEngine(graph, MessagePassingPageRank(), num_nodes=4)
        result = engine.run(3)
        # Every non-dangling vertex messages all out-neighbors each
        # superstep.
        per_iter = result.iteration_stats[-1].messages
        assert per_iter == graph.num_edges


class TestCheckpointAndRecovery:
    def test_checkpoint_written_per_interval(self, graph):
        engine = PregelEngine(graph, MessagePassingPageRank(),
                              num_nodes=4, checkpoint_interval=2)
        engine.run(4)
        store = engine.cluster.store
        assert store.exists("hama-ckpt/node0/iter000001")
        assert store.exists("hama-ckpt/node0/iter000003")
        assert not store.exists("hama-ckpt/node0/iter000000")

    def test_snapshot_contains_messages(self, graph):
        """Hama's defining cost: in-flight messages in every snapshot."""
        engine = PregelEngine(graph, MessagePassingPageRank(),
                              num_nodes=4, checkpoint_interval=1)
        engine.run(2)
        payload = engine.cluster.store.read("hama-ckpt/node0/iter000000")
        assert payload["pending"], "snapshot lacks in-flight messages"

    def test_recovery_equivalence(self, graph):
        clean = PregelEngine(graph, MessagePassingPageRank(),
                             num_nodes=4).run(6)
        engine = PregelEngine(graph, MessagePassingPageRank(),
                              num_nodes=4, checkpoint_interval=2)
        engine.schedule_failure(4, 1)
        failed = engine.run(6)
        assert failed.recovered == 1
        for v in range(graph.num_vertices):
            assert failed.values[v] == clean.values[v]

    def test_failure_before_first_checkpoint_restarts(self, graph):
        clean = PregelEngine(graph, MessagePassingPageRank(),
                             num_nodes=4).run(4)
        engine = PregelEngine(graph, MessagePassingPageRank(),
                              num_nodes=4, checkpoint_interval=10)
        engine.schedule_failure(2, 1)
        failed = engine.run(4)
        assert failed.recovered == 1
        for v in range(graph.num_vertices):
            assert failed.values[v] == clean.values[v]

    def test_no_checkpoint_means_fatal(self, graph):
        engine = PregelEngine(graph, MessagePassingPageRank(), num_nodes=4)
        engine.schedule_failure(2, 1)
        with pytest.raises(UnrecoverableFailureError):
            engine.run(4)

    def test_bad_failure_node_rejected(self, graph):
        engine = PregelEngine(graph, MessagePassingPageRank(), num_nodes=4)
        with pytest.raises(EngineError):
            engine.schedule_failure(1, 99)


class TestHamaVsImitatorCkptCost:
    def test_message_snapshots_cost_more(self, graph):
        """Section 2.3: Imitator-CKPT avoids storing messages, making
        its snapshots several times smaller/cheaper than Hama's."""
        hama = PregelEngine(graph, MessagePassingPageRank(),
                            num_nodes=4, checkpoint_interval=1)
        hama.run(4)
        from repro.api import make_engine
        imitator = make_engine(graph, "pagerank", num_nodes=4,
                               max_iterations=4, ft_mode="checkpoint",
                               checkpoint_interval=1)
        imitator.run()
        hama_bytes = hama.ckpt_stats_bytes
        imitator_bytes = imitator.ckpt.stats.bytes_written
        assert hama_bytes > 2 * imitator_bytes


class TestProgramApi:
    def test_abstract_hooks(self):
        program = PregelProgram()
        with pytest.raises(NotImplementedError):
            program.initial_value(0)
        with pytest.raises(NotImplementedError):
            program.compute(0, None, [], 0, 1)

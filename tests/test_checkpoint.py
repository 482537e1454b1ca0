"""Imitator-CKPT baseline tests: interval policy, incremental
snapshots, reload-everything recovery with replay."""

from __future__ import annotations

import functools

import pytest

from repro.api import run_job
from repro.graph import generators


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(250, alpha=2.0, seed=71, avg_degree=5.0,
                                selfish_frac=0.1)


@pytest.fixture(scope="module")
def baseline(graph):
    result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                     ft_mode="none")
    return {v: result.values[v] for v in range(graph.num_vertices)}


class TestCheckpointWriting:
    def test_interval_one_writes_every_barrier(self, graph):
        from repro.api import make_engine
        engine = make_engine(graph, "pagerank", num_nodes=5,
                             max_iterations=4, ft_mode="checkpoint",
                             checkpoint_interval=1)
        engine.run()
        assert engine.ckpt.stats.checkpoints_written == 4

    def test_interval_two_writes_half(self, graph):
        from repro.api import make_engine
        engine = make_engine(graph, "pagerank", num_nodes=5,
                             max_iterations=4, ft_mode="checkpoint",
                             checkpoint_interval=2)
        engine.run()
        assert engine.ckpt.stats.checkpoints_written == 2

    def test_checkpoint_time_charged_in_barrier(self, graph):
        ckpt = run_job(graph, "pagerank", num_nodes=5, max_iterations=4,
                       ft_mode="checkpoint", checkpoint_interval=1)
        base = run_job(graph, "pagerank", num_nodes=5, max_iterations=4,
                       ft_mode="none")
        assert all(s.checkpoint_s > 0 for s in ckpt.iteration_stats)
        assert ckpt.total_sim_time_s > base.total_sim_time_s

    def test_in_memory_dfs_cheaper(self, graph):
        slow = run_job(graph, "pagerank", num_nodes=5, max_iterations=4,
                       ft_mode="checkpoint")
        fast = run_job(graph, "pagerank", num_nodes=5, max_iterations=4,
                       ft_mode="checkpoint", checkpoint_in_memory=True)
        assert (sum(s.checkpoint_s for s in fast.iteration_stats)
                < sum(s.checkpoint_s for s in slow.iteration_stats))

    def test_incremental_snapshot_smaller_for_sparse_updates(self):
        """SSSP touches few vertices per iteration: later incremental
        snapshots shrink."""
        from repro.api import make_engine
        g = generators.chain(60, weighted=True, seed=1)
        engine = make_engine(g, "sssp", num_nodes=4, max_iterations=20,
                             ft_mode="checkpoint", checkpoint_interval=1,
                             algorithm_kwargs={"source": 0})
        engine.run()
        store = engine.cluster.store
        sizes = []
        for iteration in (0, 10):
            total = 0
            for node in range(4):
                path = f"ckpt/data/node{node}/iter{iteration:06d}"
                if store.exists(path):
                    total += store.stat(path).nbytes
            sizes.append(total)
        assert sizes[1] <= sizes[0]


class TestCheckpointRecovery:
    def test_equivalence_interval_one(self, graph, baseline):
        result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                         ft_mode="checkpoint", checkpoint_interval=1,
                         failures=[(3, [2])])
        assert len(result.recoveries) == 1
        for v in range(graph.num_vertices):
            assert result.values[v] == baseline[v]

    @pytest.mark.parametrize("interval", [2, 4])
    def test_equivalence_with_replay(self, graph, baseline, interval):
        result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                         ft_mode="checkpoint", checkpoint_interval=interval,
                         failures=[(3, [2])])
        stats = result.recoveries[0]
        # Failure at iteration 3: snapshots exist up to iteration
        # interval*k-1 < 3, so some iterations are replayed.
        assert stats.replayed_iterations > 0
        for v in range(graph.num_vertices):
            assert result.values[v] == baseline[v]

    def test_replay_reexecutes_iterations(self, graph):
        result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                         ft_mode="checkpoint", checkpoint_interval=4,
                         failures=[(5, [2])])
        # More barrier records than iterations: replayed ones recorded
        # twice.
        assert len(result.iteration_stats) > 6

    def test_failure_before_any_checkpoint(self, graph, baseline):
        result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                         ft_mode="checkpoint", checkpoint_interval=4,
                         failures=[(1, [2])])
        # Restart from initial values (resume_iteration == 0).
        for v in range(graph.num_vertices):
            assert result.values[v] == baseline[v]

    def test_vertex_cut_checkpoint_recovery(self, graph, baseline):
        result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                         ft_mode="checkpoint", partition="hybrid_cut",
                         failures=[(3, [2])])
        for v in range(graph.num_vertices):
            assert result.values[v] == pytest.approx(baseline[v],
                                                     rel=1e-12)

    def test_sssp_checkpoint_recovery(self):
        g = generators.chain(30, weighted=True, seed=4)
        clean = run_job(g, "sssp", num_nodes=4, max_iterations=60,
                        ft_mode="none", algorithm_kwargs={"source": 0})
        failed = run_job(g, "sssp", num_nodes=4, max_iterations=60,
                         ft_mode="checkpoint", checkpoint_interval=3,
                         algorithm_kwargs={"source": 0},
                         failures=[(9, [1])])
        for v in range(30):
            assert failed.values[v] == clean.values[v]

    def test_recovery_stats(self, graph):
        result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                         ft_mode="checkpoint", failures=[(3, [2])])
        stats = result.recoveries[0]
        assert stats.strategy == "checkpoint"
        assert stats.reload_s > 0
        assert stats.reconstruct_s > 0
        assert stats.recovery_bytes > 0
        assert stats.vertices_recovered == graph.num_vertices


class TestOneCheckpointRung:
    """CKPT mode and the REPLICATION-mode safety net rewind through the
    same :class:`CheckpointRecovery`; only the label, the snapshot
    reader and what gets rebuilt differ."""

    @pytest.mark.parametrize("kwargs,strategy,replayed", [
        # Snapshots after iterations 1 and 3; the crash in iteration 3
        # rewinds to 2 and replays one iteration.
        (dict(ft_mode="checkpoint", checkpoint_interval=2,
              failures=[(3, [2])]), "checkpoint", 1),
        # No snapshot yet: restart from the initial values.
        (dict(ft_mode="checkpoint", checkpoint_interval=4,
              failures=[(2, [0])]), "checkpoint", 2),
        # Three simultaneous failures at ft_level=1 exhaust replication;
        # safety snapshots after iterations 2 and 5, crash in 4.
        (dict(ft_level=1, num_standby=0, safety_checkpoint_interval=3,
              failures=[(4, [0, 1, 2])]), "safety-checkpoint", 1),
        (dict(ft_level=1, num_standby=3, safety_checkpoint_interval=3,
              failures=[(1, [0, 1, 2])]), "safety-checkpoint", 1),
    ])
    def test_both_modes_rewind_through_it(self, graph, baseline,
                                          monkeypatch, kwargs, strategy,
                                          replayed):
        from repro.ft.checkpoint import CheckpointRecovery
        entered = []
        real = CheckpointRecovery.recover

        def spy(self, failed):
            entered.append(tuple(failed))
            return real(self, failed)

        monkeypatch.setattr(CheckpointRecovery, "recover", spy)
        result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                         **kwargs)
        assert entered == [tuple(kwargs["failures"][0][1])]
        (stats,) = result.recoveries
        assert stats.strategy == strategy
        assert stats.replayed_iterations == replayed
        assert stats.newbie_nodes == stats.failed_nodes == entered[0]
        assert stats.vertices_recovered == graph.num_vertices
        assert result.num_iterations == 6
        # Bit-equal to the failure-free run, not merely close.
        assert result.values == baseline

    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    def test_rewind_keeps_the_survivors_images(self, graph, partition):
        """CKPT mode rebuilds only the failed node's graph; survivors
        keep their ``LocalGraph``, image and column state — their values
        rewind in the columns that state adopted, a write that stales
        nothing."""
        from repro.api import make_engine
        from repro.chaos.invariants import InvariantChecker
        kw = dict(num_nodes=5, max_iterations=6, partition=partition,
                  ft_mode="checkpoint", checkpoint_interval=2)
        clean = run_job(graph, "pagerank", **kw)
        engine = make_engine(graph, "pagerank", **kw)
        engine.run(max_iterations=3)
        graphs = dict(engine.local_graphs)
        images = {n: lg.cached_topology for n, lg in graphs.items()}
        states = {n: engine._vec.valid_state(n) for n in graphs}
        engine.schedule_failure(3, [2])
        checker = InvariantChecker()
        engine.attach_chaos(checker)
        result = engine.run()
        (stats,) = result.recoveries
        assert stats.replayed_iterations == 1
        for node, lg in engine.local_graphs.items():
            survivor = node != 2
            assert (lg is graphs[node]) == survivor
            assert (lg.cached_topology is images[node]) == survivor
            assert (engine._vec.valid_state(node) is states[node]) \
                == survivor
        # 5 first touches + the rebuilt node.
        assert engine._vec.state_builds == 6
        assert checker.checks >= 5  # the recovery + 4 (re)run commits
        assert result.values == clean.values


class TestCheckpointingStampsNothing:
    """Snapshots are column selections and recovery scatters them back:
    no ``VertexSlot`` is stamped at load, at a due barrier or by a
    checkpoint rewind (DESIGN.md §3)."""

    GAUGE = "soa.slots_materialized"

    def check(self, graph, failures=(), **kw):
        from repro.api import make_engine
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             max_iterations=6, **kw)
        engine.publish_slots_materialized()
        assert engine.metrics.gauge(self.GAUGE) == 0
        for failure in failures:
            engine.schedule_failure(*failure)
        result = engine.run()
        assert engine.metrics.gauge(self.GAUGE) == 0
        return result

    @pytest.mark.parametrize("failures", [(), ((3, (1,), "compute"),)])
    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    def test_ckpt_mode(self, graph, partition, failures):
        result = self.check(graph, failures, partition=partition,
                            ft_mode="checkpoint", checkpoint_interval=2,
                            num_standby=1)
        assert len(result.recoveries) == len(failures)

    def test_safety_net(self, graph):
        self.check(graph, ft_level=1, safety_checkpoint_interval=2)


KILL_SCAN_WORKLOADS = {
    "pagerank": (lambda: generators.power_law(
        60, alpha=2.0, seed=7, avg_degree=4.0, selfish_frac=0.1), {}),
    "sssp": (lambda: generators.road_network(6, 6, seed=7), {"source": 0}),
    # A grid: the smallest label needs a dozen supersteps to spread.
    "cc": (lambda: generators.road_network(7, 7, seed=3), {}),
}
KILL_SCAN_ITERATIONS = 9


@functools.lru_cache(maxsize=None)
def _kill_scan_baseline(algorithm: str, partition: str):
    make_graph, kwargs = KILL_SCAN_WORKLOADS[algorithm]
    graph = make_graph()
    result = run_job(graph, algorithm, num_nodes=4, partition=partition,
                     max_iterations=KILL_SCAN_ITERATIONS, ft_mode="none",
                     algorithm_kwargs=kwargs)
    return graph, result.values


@pytest.mark.chaos
@pytest.mark.parametrize("phase", ["compute", "after_commit"])
@pytest.mark.parametrize("kill_at", [1, 4, 7])
@pytest.mark.parametrize("interval", [1, 3])
@pytest.mark.parametrize("mode", ["ckpt", "safety_net"])
@pytest.mark.parametrize("partition",
                         ["hash_edge_cut", "random_vertex_cut", "hybrid_cut"])
@pytest.mark.parametrize("algorithm", sorted(KILL_SCAN_WORKLOADS))
def test_kill_point_scan(algorithm, partition, mode, interval, kill_at,
                         phase):
    """Every kill point of a CKPT-mode or safety-net rewind ends on the
    ``ft_mode="none"`` run's values, bit for bit."""
    graph, want = _kill_scan_baseline(algorithm, partition)
    if mode == "ckpt":
        kw = dict(ft_mode="checkpoint", checkpoint_interval=interval,
                  num_standby=1)
        failed, strategy = (1,), "checkpoint"
    else:
        kw = dict(ft_level=1, safety_checkpoint_interval=interval,
                  num_standby=2)
        # Some vertex keeps no copy: replication is exhausted.
        failed, strategy = (0, 1), "safety-checkpoint"
    result = run_job(graph, algorithm, num_nodes=4, partition=partition,
                     max_iterations=KILL_SCAN_ITERATIONS,
                     algorithm_kwargs=KILL_SCAN_WORKLOADS[algorithm][1],
                     failures=[(kill_at, failed, phase)], **kw)
    assert [r.strategy for r in result.recoveries] == [strategy]
    assert result.values == want

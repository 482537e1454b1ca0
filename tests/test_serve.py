"""Online read-serving layer: snapshot isolation, routing, degradation.

DESIGN.md §13: reads are served from *any* committed replica copy,
snapshot-isolated at the last committed superstep, concurrently with
supersteps and recovery.  The acceptance bar is bit-equality — every
response must equal the value committed at the superstep it is tagged
with, verified against a serving-free replay of the identical job
(:func:`repro.serve.replay.replay_committed_history`).

Covers the satellite checklist: snapshot isolation across superstep
boundaries, flush-free point reads, read-during-recovery degradation
tagging, replica-routing determinism, the selfish read fence closed by
the recovery audit, the replica-read-consistency chaos invariant, and
chaos slices with reads on both execution backends.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.api import make_engine
from repro.chaos import InvariantViolation, ReadConsistencyChecker
from repro.exec.base import BackendSpec
from repro.exec.simulator import SimulatorBackend
from repro.graph import generators
from repro.serve import (
    MISS,
    NEIGHBORHOOD,
    POINT,
    TOPK,
    OpenLoopWorkload,
    ReplicaRouter,
    check_responses,
    replay_committed_history,
    workload_from_config,
)

#: Mirrors the serve-smoke acceptance scenario: a power-law graph large
#: enough to have structural selfish sinks (no out-edges) on every
#: partitioning, which is what arms the selfish read fence.
NUM_VERTICES = 300
PARTS = ["hash_edge_cut", "random_vertex_cut"]

SERVE = (("num_queries", 2000), ("qps", 2000.0), ("seed", 11),
         ("neighborhood_frac", 0.05), ("topk_frac", 0.02))

#: First kill recovers by rebirth; the second (after_commit) by rebirth
#: too when spares remain, by migration when the pool is dry — both
#: paths recompute selfish masters and must fence their reads.
FAILURES = ((2, (0, 1), "compute"), (5, (2,), "after_commit"))


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(NUM_VERTICES, alpha=2.0, seed=7,
                                avg_degree=5.0)


def make_spec(partition="hash_edge_cut", failures=(), num_standby=3,
              serve=SERVE, **overrides):
    kwargs = dict(algorithm="pagerank", num_nodes=5, partition=partition,
                  ft_level=2, max_iterations=8, num_standby=num_standby,
                  failures=failures, serve=serve)
    kwargs.update(overrides)
    return BackendSpec(**kwargs)


def run_checked(graph, spec):
    """Run on the simulator and differential-check every response."""
    result = SimulatorBackend().run(graph, spec)
    history = replay_committed_history(graph, spec)
    mismatches = check_responses(result.extra["serve_responses"], history)
    assert mismatches == [], mismatches[:3]
    return result


class TestWorkload:
    """Seeded open-loop generation: deterministic, Zipf-keyed."""

    def test_same_seed_same_workload(self):
        a = OpenLoopWorkload(1000, num_queries=500, seed=3)
        b = OpenLoopWorkload(1000, num_queries=500, seed=3)
        assert np.array_equal(a.arrival_s, b.arrival_s)
        assert [a.query(i) for i in range(500)] == \
            [b.query(i) for i in range(500)]

    def test_different_seed_different_workload(self):
        a = OpenLoopWorkload(1000, num_queries=500, seed=3)
        b = OpenLoopWorkload(1000, num_queries=500, seed=4)
        assert not np.array_equal(a.arrival_s, b.arrival_s)

    def test_arrivals_are_open_loop_poisson(self):
        w = OpenLoopWorkload(1000, num_queries=4000, qps=500.0, seed=9)
        assert np.all(np.diff(w.arrival_s) >= 0)
        # Mean inter-arrival ~ 1/qps (law of large numbers, not a
        # distribution test).
        assert 1 / 500.0 == pytest.approx(
            float(np.mean(np.diff(w.arrival_s))), rel=0.1)

    def test_zipf_keys_are_skewed_and_in_range(self):
        w = OpenLoopWorkload(1000, num_queries=5000, zipf_s=1.2, seed=9)
        queries = [w.query(i) for i in range(5000)]
        gids = [q.gid for q in queries if q.kind != TOPK]
        assert min(gids) >= 0 and max(gids) < 1000
        counts = sorted(np.bincount(gids, minlength=1000))[::-1]
        # The hottest key absorbs far more than the uniform share.
        assert counts[0] > 5 * (len(gids) / 1000)

    def test_kind_mix_matches_fractions(self):
        w = OpenLoopWorkload(1000, num_queries=4000, seed=9,
                             neighborhood_frac=0.2, topk_frac=0.1)
        kinds = np.array([w.query(i).kind for i in range(4000)])
        assert np.mean(kinds == NEIGHBORHOOD) == pytest.approx(0.2,
                                                               abs=0.05)
        assert np.mean(kinds == TOPK) == pytest.approx(0.1, abs=0.05)

    def test_config_filter_ignores_routing_keys(self):
        w = workload_from_config(100, {"num_queries": 7, "seed": 1,
                                       "policy": "least_loaded",
                                       "expected_supersteps": 8})
        assert len(w) == 7


class _MidSuperstepProbe:
    """Serve hook reading values *inside* a superstep via ``value_of``.

    Captures a full point-read sweep at the ``sync`` phase (progress
    .5, after compute wrote new values but before the commit barrier)
    and asserts the flush-free contract by watching ``flush_count``.
    """

    def __init__(self, at_iteration: int):
        self.at_iteration = at_iteration
        self.snapshot: dict[int, float] | None = None
        self.tag = None
        self.flushes_during_reads = None

    def on_phase(self, engine, phase):
        if phase != "sync" or engine.iteration != self.at_iteration:
            return
        before = engine._vec.flush_count
        self.snapshot = {gid: engine.value_of(gid)
                         for gid in range(engine.graph.num_vertices)}
        self.tag = engine.committed_iteration
        self.flushes_during_reads = engine._vec.flush_count - before


class TestSnapshotIsolation:
    """Reads never expose mid-superstep or uncommitted state."""

    @pytest.mark.parametrize("partition", PARTS)
    def test_healthy_run_every_response_is_committed(self, graph,
                                                     partition):
        result = run_checked(graph, make_spec(partition))
        serve = result.extra["serve"]
        assert serve["queries"] == 2000
        assert serve["misses"] == 0
        assert serve["degraded_reads"] == 0

    def test_mid_superstep_point_reads_see_last_commit(self, graph):
        """At the sync phase of superstep N the engine holds N's fresh
        values uncommitted; ``value_of`` must still return N-1's."""
        spec = make_spec(serve=())
        probe = _MidSuperstepProbe(at_iteration=3)
        engine = make_engine(graph, **spec.engine_kwargs())
        engine.attach_serve(probe)
        engine.run()
        history = replay_committed_history(graph, spec)
        assert probe.tag == 2
        assert probe.snapshot == history[2]
        assert probe.snapshot != history[3]

    def test_point_reads_do_not_flush_columns(self, graph):
        probe = _MidSuperstepProbe(at_iteration=3)
        engine = make_engine(graph, **make_spec(serve=()).engine_kwargs())
        engine.attach_serve(probe)
        engine.run()
        # A whole-graph sweep of point reads mid-superstep triggered
        # zero column writebacks (satellite: no full-flush per read).
        assert probe.flushes_during_reads == 0

    def test_responses_tagged_with_monotonic_supersteps(self, graph):
        result = run_checked(graph, make_spec())
        tags = [r.superstep for r in result.extra["serve_responses"]]
        assert tags[0] == -1
        assert tags[-1] == result.iterations - 1
        assert all(b >= a for a, b in zip(tags, tags[1:]))


class TestRouting:
    """Seeded replica selection is deterministic and load-aware."""

    @pytest.fixture()
    def engine(self, graph):
        return make_engine(graph, **make_spec(serve=()).engine_kwargs())

    def test_round_robin_is_deterministic_for_a_seed(self, engine):
        gids = list(range(0, NUM_VERTICES, 7)) * 3
        a = ReplicaRouter(engine, seed=5)
        b = ReplicaRouter(engine, seed=5)
        assert [a.route(g) for g in gids] == [b.route(g) for g in gids]

    def test_round_robin_spreads_over_all_copies(self, engine):
        router = ReplicaRouter(engine, seed=0)
        gid = next(s.gid for s in engine.local_graphs[0].iter_masters()
                   if not s.selfish)
        nodes = {router.route(gid)[0] for _ in range(12)}
        assert nodes == set(router.candidates(gid))
        assert len(nodes) == 3  # ft_level=2 -> K+1 copies

    def test_least_loaded_balances_within_one(self, engine):
        router = ReplicaRouter(engine, seed=0, policy="least_loaded")
        gid = next(s.gid for s in engine.local_graphs[0].iter_masters()
                   if not s.selfish)
        for _ in range(31):
            router.route(gid)
        loads = [router.load[n] for n in router.candidates(gid)]
        assert max(loads) - min(loads) <= 1

    def test_unknown_policy_rejected(self, engine):
        with pytest.raises(ValueError, match="policy"):
            ReplicaRouter(engine, policy="random")

    def test_selfish_vertices_pinned_to_master(self, engine):
        # Structural sinks (no out-edges) skip replica syncs under the
        # selfish optimisation, so only the master holds fresh state.
        assert engine.selfish_opt_active
        selfish = [s.gid for lg in engine.local_graphs.values()
                   for s in lg.iter_masters() if s.selfish]
        assert selfish, "power-law graph should have structural sinks"
        router = ReplicaRouter(engine, seed=0)
        for gid in selfish[:10]:
            assert router.candidates(gid) == \
                [engine.master_node_of[gid]]

    def test_fenced_gid_is_a_degraded_miss(self, engine):
        router = ReplicaRouter(engine, seed=0)
        engine.selfish_read_fence.add(42)
        try:
            assert router.route(42) == (MISS, True)
        finally:
            engine.selfish_read_fence.clear()

    def test_dead_node_falls_back_to_surviving_replica(self, engine):
        router = ReplicaRouter(engine, seed=0)
        gid = next(s.gid for s in engine.local_graphs[0].iter_masters()
                   if not s.selfish)
        master = engine.master_node_of[gid]
        engine.cluster.crash(master)
        for _ in range(6):
            node, degraded = router.route(gid)
            assert node != master and node != MISS
            assert degraded is True


class TestDegradedReads:
    """Reads during recovery degrade explicitly — and stay committed."""

    @pytest.mark.parametrize("partition", PARTS)
    def test_chaos_run_serves_correct_and_tagged(self, graph, partition):
        result = run_checked(graph, make_spec(partition,
                                              failures=FAILURES))
        serve = result.extra["serve"]
        # Two kill events (a double, then a single) -> two recoveries.
        assert result.failures_recovered == 2
        assert serve["degraded_reads"] > 0
        # Degraded responses carry the flag; misses are always degraded
        # and carry the sentinel node.
        for resp in result.extra["serve_responses"]:
            if resp.kind == POINT and resp.value is None:
                assert resp.degraded and resp.replica_node == MISS

    def test_recovery_reads_fall_back_to_surviving_replicas(self, graph):
        """Degraded reads are *answers*, not just misses: vertices that
        lost their master are still served — off a surviving replica,
        tagged degraded — and the served value is still committed."""
        result = run_checked(graph, make_spec(failures=FAILURES))
        answered_degraded = [
            r for r in result.extra["serve_responses"]
            if r.kind == POINT and r.degraded and r.value is not None]
        assert answered_degraded, \
            "recovery window should serve fallback reads"

    def test_selfish_fence_arms_on_recovery_and_clears_on_commit(
            self, graph):
        """The audit's bug: a recovery-recomputed selfish master holds
        the value the *retry* will commit.  The fence must be armed at
        post-recovery and dropped by the next commit barrier."""
        spec = make_spec(serve=(), failures=FAILURES, num_standby=2)

        class FenceWatch:
            def __init__(self):
                self.armed_at = []
                self.seen_nonempty_commit = False

            def on_phase(self, engine, phase):
                if phase == "post_recovery" and engine.selfish_read_fence:
                    self.armed_at.append(
                        (engine.iteration,
                         set(engine.selfish_read_fence)))
                if phase == "post_commit" and engine.selfish_read_fence:
                    self.seen_nonempty_commit = True

        watch = FenceWatch()
        engine = make_engine(graph, **spec.engine_kwargs())
        for iteration, ranks, phase in spec.failures:
            engine.schedule_failure(iteration, list(ranks), phase)
        engine.attach_serve(watch)
        engine.run()
        # num_standby=2 dries the pool at the second kill -> migration
        # rung -> recompute_selfish_masters arms the fence.
        assert watch.armed_at, "migration recovery should arm the fence"
        for _, gids in watch.armed_at:
            for gid in gids:
                master = engine.master_node_of[gid]
                assert engine.local_graphs[master].slot_of(gid).selfish
        # post_commit fires after _commit_barrier cleared the fence.
        assert not watch.seen_nonempty_commit
        assert not engine.selfish_read_fence

    def test_fenced_reads_stay_bit_correct_under_migration(self, graph):
        """With the fence in place the migration-recovery run (the
        reproduction of the stale-read bug) serves zero mismatches."""
        result = run_checked(
            graph, make_spec(failures=FAILURES, num_standby=2))
        assert result.failures_recovered == 2


class TestReadConsistencyChecker:
    """The chaos invariant: any replica read == the master read."""

    @pytest.mark.parametrize("partition", PARTS)
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_holds_at_every_commit_under_chaos(self, graph, partition,
                                               vectorized):
        spec = make_spec(partition, failures=FAILURES, serve=(),
                         vectorized=vectorized)
        checker = ReadConsistencyChecker(context=partition)
        engine = make_engine(graph, **spec.engine_kwargs())
        for iteration, ranks, phase in spec.failures:
            engine.schedule_failure(iteration, list(ranks), phase)
        engine.attach_serve(checker)
        engine.run()
        assert checker.checks >= spec.max_iterations

    def test_detects_a_torn_replica(self, graph):
        engine = make_engine(graph, **make_spec(
            serve=(), vectorized=False).engine_kwargs())
        engine.run()
        # Corrupt one replica copy behind the router's back.
        slot = next(s for s in engine.local_graphs[0].iter_masters()
                    if not s.selfish and s.meta.replica_positions)
        rnode, pos = next(iter(slot.meta.replica_positions.items()))
        engine.local_graphs[rnode].slots[pos].value = -123.0
        with pytest.raises(InvariantViolation, match="replica-read"):
            ReadConsistencyChecker().on_phase(engine, "post_commit")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocessing backend requires the fork start method")
class TestCrossBackendServing:
    """The same spec serves committed reads on real processes too."""

    def test_healthy_routing_is_identical_across_backends(self, graph):
        from repro.exec.mp import MultiprocessingBackend
        spec = make_spec()
        sim = SimulatorBackend().run(graph, spec)
        with MultiprocessingBackend() as backend:
            mp = backend.run(graph, spec)
        # Same workload, same seeded router decisions -> identical
        # per-replica load split, query-for-query.
        assert mp.extra["serve"]["per_replica_load"] == \
            sim.extra["serve"]["per_replica_load"]
        assert mp.extra["serve"]["queries"] == 2000
        assert mp.extra["serve"]["misses"] == 0
        history = replay_committed_history(graph, spec)
        assert check_responses(mp.extra["serve_responses"],
                               history) == []

    def test_reads_survive_real_kills_bit_equal(self, graph):
        from repro.exec.mp import MultiprocessingBackend
        spec = make_spec(failures=FAILURES)
        with MultiprocessingBackend() as backend:
            mp = backend.run(graph, spec)
        # Recovery events, as on the simulator: a double kill, then a
        # single one.
        assert mp.failures_recovered == 2
        assert [r["failed_nodes"] for r in mp.extra["recoveries"]] == \
            [[0, 1], [2]]
        serve = mp.extra["serve"]
        assert serve["queries"] == 2000
        assert serve["degraded_reads"] > 0
        history = replay_committed_history(graph, spec)
        mismatches = check_responses(mp.extra["serve_responses"],
                                     history)
        assert mismatches == [], mismatches[:3]

    def test_scalar_workers_serve_the_same_history(self, graph):
        """``vectorized=False`` workers answer reads from slots, the
        default ones from committed columns: both stay bit-equal to the
        replayed history, kills and mid-superstep reads included."""
        from repro.exec.mp import MultiprocessingBackend
        spec = make_spec(failures=FAILURES, vectorized=False)
        with MultiprocessingBackend() as backend:
            mp = backend.run(graph, spec)
        assert mp.failures_recovered == 2
        assert mp.extra["serve"]["queries"] == 2000
        mismatches = check_responses(mp.extra["serve_responses"],
                                     replay_committed_history(graph, spec))
        assert mismatches == [], mismatches[:3]

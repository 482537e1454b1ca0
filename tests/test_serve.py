"""Online read-serving layer: snapshot isolation, routing, degradation.

DESIGN.md §13: reads are served from *any* committed replica copy,
snapshot-isolated at the last committed superstep, concurrently with
supersteps and recovery.  The acceptance bar is bit-equality — every
response must equal the value committed at the superstep it is tagged
with, verified against a serving-free replay of the identical job
(:func:`repro.serve.replay.replay_committed_history`).

Covers the satellite checklist: snapshot isolation across superstep
boundaries, reads that build and stamp nothing, read-during-recovery
degradation tagging, replica-routing determinism, the selfish read
fence closed by the recovery audit, the replica-read-consistency chaos
invariant, chaos slices with reads on both execution backends, and the
drain path held equal to the per-query reference path
(``tests/reference/serve.py``).
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import make_engine
from repro.chaos import InvariantViolation, ReadConsistencyChecker
from repro.engine.vectorized import top_masters
from repro.errors import ConfigError
from repro.exec.base import BackendSpec
from repro.exec.simulator import SimulatorBackend
from repro.graph import generators
from repro.serve import (
    MISS,
    NEIGHBORHOOD,
    POINT,
    TOPK,
    CommittedView,
    OpenLoopWorkload,
    ReplicaRouter,
    KIND_NAMES,
    ReadResponse,
    ReadServer,
    ServePump,
    WorkloadCursor,
    check_responses,
    replay_committed_history,
    workload_from_config,
)
from repro.serve.workload import Query
from tests.reference.serve import ReferencePump, ReferenceServer

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


def _footprint(engine) -> tuple[int, int]:
    """Column states built and slots stamped so far."""
    return (engine.metrics.value("soa.state_builds"),
            sum(lg.materialized for lg in engine.local_graphs.values()))


class _MidSuperstepProbe:
    """Serve hook reading values *inside* a superstep via ``value_of``.

    Captures a full point-read sweep and a top-K at the ``sync`` phase
    (progress .5, after compute wrote new values but before the commit
    barrier), and what the reads built and stamped: column states
    (``soa.state_builds``) and slots (``soa.slots_materialized``).
    """

    def __init__(self, at_iteration: int):
        self.at_iteration = at_iteration
        self.snapshot: dict[int, float] | None = None
        self.top = None
        self.tag = None
        self.built_by_reads = None

    def on_phase(self, engine, phase):
        if phase != "sync" or engine.iteration != self.at_iteration:
            return
        before = _footprint(engine)
        self.snapshot = {gid: engine.value_of(gid)
                         for gid in range(engine.graph.num_vertices)}
        self.top = CommittedView(engine).top_k(10)
        self.tag = engine.committed_iteration
        self.built_by_reads = tuple(
            after - was for after, was in zip(_footprint(engine), before))


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

    def test_point_reads_build_and_stamp_nothing(self, graph):
        """A whole-graph sweep of point reads and a top-K, mid-superstep,
        read the committed columns: no column state is built, no slot
        stamped, and both return the last commit."""
        spec = make_spec(serve=())
        probe = _MidSuperstepProbe(at_iteration=3)
        engine = make_engine(graph, **spec.engine_kwargs())
        engine.attach_serve(probe)
        engine.run()
        assert probe.built_by_reads == (0, 0)
        committed = replay_committed_history(graph, spec)[2]
        assert probe.snapshot == committed
        assert probe.top == sorted(committed.items(),
                                   key=lambda t: (-t[1], t[0]))[:10]

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
        with pytest.raises(ConfigError, match="policy"):
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


#: The serving rows of ``tests/tools/behaviour_dump.py``: PageRank on a
#: graph with selfish sinks, 4 nodes, 6 supersteps, one read workload.
DUMP_SERVE = (("neighborhood_frac", 0.1), ("num_queries", 1500),
              ("qps", 1500.0), ("seed", 5), ("topk_frac", 0.05))
DUMP_KILLS = ((2, (1,), "compute"), (3, (2,), "after_commit"))
DUMP_SCHEDULES = {
    "clean": {},
    "rebirth": dict(num_standby=2, failures=DUMP_KILLS),
    "migration": dict(recovery="migration", num_standby=0,
                      failures=((2, (1,), "compute"),)),
    "membership": dict(num_standby=2, membership=((2, "join", None),
                                                  (4, "drain", 1))),
}


def _served(graph, spec, reference: bool):
    """Run ``spec`` with the production drain path or the reference
    per-query one; returns the server after the tail drain."""
    cfg = spec.serve_config()
    workload = workload_from_config(graph.num_vertices, cfg)
    engine = make_engine(graph, **spec.engine_kwargs())
    for iteration, ranks, phase in spec.failures:
        engine.schedule_failure(iteration, list(ranks), phase)
    kwargs = dict(seed=cfg.get("route_seed", 0),
                  policy=cfg.get("policy", "round_robin"),
                  neighborhood_limit=workload.neighborhood_limit)
    if reference:
        server = ReferenceServer(engine, **kwargs)
        pump = ReferencePump(server, workload, cfg["expected_supersteps"])
    else:
        server = ReadServer(engine, **kwargs)
        pump = ServePump(server, WorkloadCursor(
            workload, cfg["expected_supersteps"]))
    engine.attach_serve(pump)
    engine.run()
    pump.finish()
    return server


class TestReferenceEquivalence:
    """The drain path (routing snapshot, plan cache, response columns,
    cached top-K) answers exactly what the per-query reference path
    (``tests/reference/serve.py``) answers on the dump's schedules."""

    @pytest.mark.parametrize("policy", ["round_robin", "least_loaded"])
    @pytest.mark.parametrize("partition,schedule", [
        (partition, schedule) for schedule in DUMP_SCHEDULES
        for partition in PARTS
        if schedule != "membership" or partition == "hash_edge_cut"])
    def test_drain_path_equals_reference(self, partition, schedule,
                                         policy):
        graph = generators.power_law(200, alpha=2.0, seed=77,
                                     avg_degree=5.0, selfish_frac=0.1)
        spec = BackendSpec(
            algorithm="pagerank", num_nodes=4, partition=partition,
            max_iterations=6, seed=11,
            serve=DUMP_SERVE + (("policy", policy),),
            **DUMP_SCHEDULES[schedule])
        new = _served(graph, spec, reference=False)
        ref = _served(graph, spec, reference=True)
        rows = [(r.gid, r.kind, r.value, r.superstep, r.degraded,
                 r.replica_node) for r in ref.responses]
        assert list(zip(*new.responses.columns())) == rows
        assert new.router.load == ref.router.load
        assert new.router._rr == ref.router._rr
        assert new.misses == ref.misses
        # Every top-K answer, degraded ones included (which
        # ``check_responses`` skips), equals an uncached recompute.
        topk = [r for r in ref.responses if r.kind == TOPK]
        assert topk
        if schedule in ("rebirth", "migration"):
            assert any(r.degraded for r in topk)


#: The targeted drains' neighbourhood cap (power-law hubs exceed it).
LIMIT = 4


def _all_transitioning(engine):
    """Every worker joining or draining, node 0 also retired: each read
    falls back to its master, a miss where that master is node 0."""
    cluster = engine.cluster
    saved = set(cluster._transitioning), set(cluster._retired)
    cluster._transitioning |= set(engine.local_graphs)
    cluster._retired.add(0)

    def restore():
        cluster._transitioning, cluster._retired = saved
    return restore


class _PairedDrain:
    """Serve hook: at the first ``(iteration, phase)`` one drain — every
    gid twice
    as a point read, a neighbourhood of out-degree 0 and one of
    out-degree above :data:`LIMIT`, a top-K — goes to the drain path
    and, query by query, to the reference, each with its own router.
    ``prepare(engine)`` may change the cluster first and return the
    undo."""

    def __init__(self, at, policy, prepare=None):
        self.at, self.policy, self.prepare = at, policy, prepare
        self.new = self.ref = self.seen = None

    def on_phase(self, engine, phase):
        if self.new is None:
            kwargs = dict(seed=3, policy=self.policy,
                          neighborhood_limit=LIMIT)
            self.new = ReadServer(engine, **kwargs)
            self.ref = ReferenceServer(engine, **kwargs)
        if (engine.iteration, phase) != self.at or self.seen is not None:
            return
        restore = self.prepare(engine) if self.prepare else None
        try:
            degree = engine.graph.out_degrees()
            gids = [*range(engine.graph.num_vertices)] * 2 + [
                int(np.flatnonzero(degree == 0)[0]),
                int(np.flatnonzero(degree > LIMIT)[0]), -1]
            kinds = ([POINT] * (len(gids) - 3)
                     + [NEIGHBORHOOD, NEIGHBORHOOD, TOPK])
            self.new.serve_drain(kinds, gids, 5, engine.committed_iteration)
            for kind, gid in zip(kinds, gids):
                self.ref.serve(Query(0, 0.0, kind, gid, 5))
            self.seen = (sorted(n for n, node in engine.cluster.nodes.items()
                                if not node.is_alive and
                                n in engine.local_graphs),
                         engine.in_recovery, len(engine.selfish_read_fence))
        finally:
            if restore is not None:
                restore()


#: name -> (spec overrides, drain point, prepare, what the drain holds).
TARGETED = {
    # Node 1 is killed in superstep 2's compute phase; detection waits
    # for the barrier, so the sync drain routes around a dead node.
    "undetected_kill": (dict(num_standby=2, failures=((2, (1,), "compute"),)),
                        (2, "sync"), None,
                        lambda seen: seen[0] == [1] and not seen[1]),
    "selfish_fence": (dict(num_standby=2, failures=((2, (1,), "compute"),)),
                      (2, "post_recovery"), None,
                      lambda seen: seen[2] > 0),
    "all_transitioning": ({}, (1, "superstep_start"), _all_transitioning,
                          lambda seen: True),
    "migration_protocol": (dict(recovery="migration", num_standby=0,
                                failures=((2, (1,), "compute"),)),
                           (2, "recovery_protocol"), None,
                           lambda seen: seen[0] == [1] and seen[1]),
    "migration_protocol_scalar": (dict(recovery="migration", num_standby=0,
                                       vectorized=False,
                                       failures=((2, (1,), "compute"),)),
                                  (2, "recovery_protocol"), None,
                                  lambda seen: seen[0] == [1] and seen[1]),
}


class TestTargetedDrains:
    """The drain path equals the reference on drains built to hold each
    routing rule: copies on a killed, undetected node, fenced selfish
    masters, the all-transitioning master fallback (and its miss), both
    policies, neighbourhoods of degree 0 and above the cap, and a drain
    inside a Migration recovery."""

    @pytest.mark.parametrize("policy", ["round_robin", "least_loaded"])
    @pytest.mark.parametrize("case", list(TARGETED))
    def test_drain_equals_reference(self, case, policy):
        overrides, at, prepare, holds = TARGETED[case]
        graph = generators.power_law(200, alpha=2.0, seed=77,
                                     avg_degree=5.0, selfish_frac=0.1)
        spec = BackendSpec(algorithm="pagerank", num_nodes=4,
                           partition="hash_edge_cut", max_iterations=4,
                           seed=11, **overrides)
        engine = make_engine(graph, **spec.engine_kwargs())
        for iteration, ranks, phase in spec.failures:
            engine.schedule_failure(iteration, list(ranks), phase)
        paired = _PairedDrain(at, policy, prepare)
        engine.attach_serve(paired)
        engine.run()
        assert paired.seen is not None and holds(paired.seen)
        new, ref = paired.new, paired.ref
        rows = [(r.gid, r.kind, r.value, r.superstep, r.degraded,
                 r.replica_node) for r in ref.responses]
        assert list(zip(*new.responses.columns())) == rows
        assert new.router.load == ref.router.load
        assert new.router._rr == ref.router._rr
        assert new.misses == ref.misses
        hoods = [r.value for r in ref.responses if r.kind == NEIGHBORHOOD]
        assert hoods[0] == () and len(hoods[1]) == LIMIT
        if case == "all_transitioning":
            assert ref.misses and all(r.degraded for r in ref.responses
                                      if r.kind == POINT)
            assert {r.replica_node for r in ref.responses} >= {1, MISS}


class TestReadWork:
    """A drain touches no slot: no image built, no slot stamped, and
    every ``SlotArray.metadata`` read it makes is a whole node's
    ``masters()`` — one per derive where no image is cached, none where
    one is; a node's candidate rows are derived once per structure
    version (so once per image object).  A per-gid metadata read in
    ``_derive`` or in a drain breaks the count."""

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_drains_stamp_nothing_and_derive_once(self, graph, monkeypatch,
                                                  vectorized):
        from repro.engine.local_graph import SlotArray
        from repro.engine.soa import NodeTopology
        calls = {"build": 0, "from_columns": 0}
        reads = {"metadata": 0, "masters": 0}
        in_derive = []  # SlotArray.metadata calls of the open _derive

        def counting(name, original):
            def spy(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return spy

        for name in ("build", "from_columns"):
            monkeypatch.setattr(NodeTopology, name, classmethod(counting(
                name, getattr(NodeTopology, name).__func__)))
        metadata, masters = SlotArray.metadata, SlotArray.masters

        def spy_metadata(slots, positions):
            reads["metadata"] += 1
            if in_derive:
                in_derive[-1] += 1
            return metadata(slots, positions)

        def spy_masters(slots):
            reads["masters"] += 1
            return masters(slots)

        monkeypatch.setattr(SlotArray, "metadata", spy_metadata)
        monkeypatch.setattr(SlotArray, "masters", spy_masters)
        derived = []
        derive = ReplicaRouter._derive

        def spy_derive(router, node, lg):
            derived.append((node, lg.structure, lg.cached_topology))
            in_derive.append(0)
            try:
                derive(router, node, lg)
            finally:
                derived[-1] += (in_derive.pop(),)

        monkeypatch.setattr(ReplicaRouter, "_derive", spy_derive)
        footprints, drain_reads = [], []
        serve_drain = ReadServer.serve_drain

        def spy_drain(server, *args):
            before = (dict(calls), _footprint(server.engine))
            read = dict(reads)
            serve_drain(server, *args)
            footprints.append((before, (dict(calls),
                                        _footprint(server.engine))))
            drain_reads.append(tuple(reads[name] - read[name]
                                     for name in ("metadata", "masters")))

        monkeypatch.setattr(ReadServer, "serve_drain", spy_drain)
        # One spare: the second kill recovers by Migration, whose
        # survivors, on the scalar path, keep no image until rebuilt.
        result = run_checked(graph, make_spec(failures=FAILURES,
                                              num_standby=1,
                                              vectorized=vectorized))
        assert result.failures_recovered == 2
        assert len(footprints) > 20
        assert all(before == after for before, after in footprints)
        versions = [(node, version) for node, version, *_ in derived]
        assert len(set(versions)) == len(versions)
        images = [(node, id(image)) for node, _, image, _ in derived
                  if image is not None]
        assert len(set(images)) == len(images)
        assert vectorized or any(image is None for *_, image, _ in derived)
        # One metadata read per derive without an image, none with one;
        # a drain reads whole nodes' masters only.
        assert [n for *_, n in derived] == [
            int(image is None) for *_, image, _ in derived]
        assert all(meta == whole for meta, whole in drain_reads)
        assert vectorized or any(meta for meta, _ in drain_reads)
        # Re-derived after the recoveries, not on every drain.
        nodes = len(result.extra["serve"]["per_replica_load"])
        assert nodes <= len(derived) < len(footprints)


class TestTopMasters:
    """``top_masters`` sorts only the values at least the K-th largest;
    it must rank exactly as one lexsort of them all."""

    @settings(max_examples=150, deadline=None)
    # Fewer non-NaN values than K; a tie straddling the K-th place.
    @example(values=[np.nan, np.nan, 1.0], k=2, ints=False)
    @example(values=[0.5, 1.0, 0.5, 0.5, 0.0], k=2, ints=False)
    @given(values=st.lists(st.just(np.nan) | st.sampled_from(
        [0.0, -0.0, 0.5, 0.25, 1.0, -1.0, np.inf, -np.inf]), max_size=40),
        k=st.integers(0, 45), ints=st.booleans())
    def test_equals_a_full_lexsort(self, values, k, ints):
        values = np.asarray(values, dtype=np.float64)
        if ints:
            values = np.nan_to_num(values, posinf=9, neginf=-9).astype(int)
        gids = np.random.default_rng(k).permutation(values.size)
        order = np.lexsort((gids, -values))[:k]
        want = list(zip(values[order].tolist(), gids[order].tolist()))
        assert repr(top_masters(gids, values, k)) == repr(want)


class TestDrainPath:
    """Response columns, per-kind gauges, config validation, top-K cache."""

    def test_response_view_is_a_sequence_of_rows(self, graph):
        result = SimulatorBackend().run(graph, make_spec())
        responses = result.extra["serve_responses"]
        assert len(responses) == 2000
        rows = list(responses)
        assert all(isinstance(r, ReadResponse) for r in rows)
        assert responses[:3] == rows[:3]
        assert responses[-1] == rows[-1]
        assert responses[5:9:2] == rows[5:9:2]

    @pytest.mark.parametrize("backend", [
        "simulator",
        pytest.param("multiprocessing", marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="multiprocessing backend requires the fork start "
                   "method")),
    ])
    def test_kept_nothing_when_keep_responses_is_off(self, graph, backend):
        from repro.exec.mp import MultiprocessingBackend
        make = {"simulator": SimulatorBackend,
                "multiprocessing": MultiprocessingBackend}[backend]
        with make() as runner:
            result = runner.run(graph, make_spec(
                serve=SERVE + (("keep_responses", False),)))
        responses = result.extra["serve_responses"]
        assert len(responses) == 0
        assert [len(col) for col in responses.columns()] == [0] * 6
        assert result.extra["serve"]["queries"] == 2000
        assert multiprocessing.active_children() == []

    def test_per_kind_gauges_are_percentiles_of_their_kind(self, graph):
        spec = make_spec(failures=FAILURES)
        cfg = spec.serve_config()
        workload = workload_from_config(graph.num_vertices, cfg)
        engine = make_engine(graph, **spec.engine_kwargs())
        server = ReadServer(engine, neighborhood_limit=16)
        pump = ServePump(server, WorkloadCursor(
            workload, cfg["expected_supersteps"]))
        engine.attach_serve(pump)
        engine.run()
        pump.finish()
        server.report()
        gauges = engine.metrics.gauges()
        latency = np.asarray(server.stats.latencies_s)
        kinds = np.asarray(server.stats.kinds)
        for code, name in KIND_NAMES.items():
            assert (kinds == code).any()
            assert gauges[f"serve.{name}_p50_us"] == \
                float(np.percentile(latency[kinds == code], 50)) * 1e6

    def test_misspelled_serve_key_is_a_config_error(self, graph):
        spec = make_spec(serve=(("num_queries", 2000),
                                ("topk_fraction", 0.5)))
        with pytest.raises(ConfigError, match="topk_fraction"):
            SimulatorBackend().run(graph, spec)

    def test_unknown_policy_is_a_config_error(self, graph):
        spec = make_spec(serve=(("num_queries", 2000), ("policy", "random")))
        with pytest.raises(ConfigError, match="round_robin"):
            SimulatorBackend().run(graph, spec)

    def test_topk_cache_bypassed_while_the_fence_is_armed(self, graph):
        engine = make_engine(graph, **make_spec(serve=()).engine_kwargs())
        engine.run()
        view = CommittedView(engine)
        top = view.top_k(5)
        gid, _value = top[-1]
        node = engine.master_node_of[gid]
        lg = engine.local_graphs[node]
        pos = lg.index_of[gid]
        saved = lg.values[pos]
        # A recompute writes a master value without a commit, fenced.
        engine.selfish_read_fence.add(gid)
        lg.values[pos] = 1e9
        try:
            assert view.top_k(5)[0] == (gid, 1e9)
        finally:
            lg.values[pos] = saved
            engine.selfish_read_fence.clear()
        assert view.top_k(5) == top


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

    def test_misspelled_serve_key_is_a_config_error(self, graph):
        from repro.exec.mp import MultiprocessingBackend
        spec = make_spec(serve=(("num_queries", 2000),
                                ("topk_fraction", 0.5)))
        with MultiprocessingBackend() as backend:
            with pytest.raises(ConfigError, match="topk_fraction"):
                backend.run(graph, spec)
        assert multiprocessing.active_children() == []

    def test_unknown_policy_is_a_config_error(self, graph):
        from repro.exec.mp import MultiprocessingBackend
        spec = make_spec(serve=(("num_queries", 2000), ("policy", "random")))
        with MultiprocessingBackend() as backend:
            with pytest.raises(ConfigError, match="least_loaded"):
                backend.run(graph, spec)
        assert multiprocessing.active_children() == []

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

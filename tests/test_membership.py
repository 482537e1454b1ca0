"""Elastic membership + adaptive FT control plane (DESIGN.md §14).

Unit coverage for the membership package (seeded leader election, the
adaptive replication-floor policy, the cluster membership state
machine, the ``move_master`` transfer primitive) plus the end-to-end
properties the tentpole claims:

* elastic runs (joins, drains, flaps) are **bit-identical** to static
  runs — membership is value-neutral;
* the adaptive floor observably rises on failures and relaxes after
  quiet;
* the serve router never routes a read to a joining, draining or
  retired node;
* the full chaos schedule of the issue — join 2, drain 1, flap 1,
  kill the elected recovery leader mid-recovery — passes the
  differential oracle with every invariant sweep clean.
"""

from __future__ import annotations

import pytest

from repro.api import make_engine, run_job
from repro.chaos import (
    FailureSchedule,
    InvariantViolation,
    MembershipInvariant,
    run_differential,
)
from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, FaultToleranceConfig, FTMode
from repro.errors import ClusterError, ConfigError
from repro.exec.base import BackendSpec
from repro.exec.simulator import SimulatorBackend
from repro.graph import generators
from repro.membership.election import elect_leader
from repro.membership.policy import FtPolicy, FtPolicyConfig
from repro.membership.rebalance import move_master
from repro.serve.server import ReadServer, ServePump, WorkloadCursor
from repro.serve.workload import OpenLoopWorkload


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(150, alpha=2.1, seed=3, name="memb-pl")


# ---------------------------------------------------------------------------
# Leader election
# ---------------------------------------------------------------------------


class TestLeaderElection:
    def test_deterministic_per_term(self):
        alive = [0, 2, 3, 5]
        for term in range(6):
            a = elect_leader(alive, seed=11, term=term)
            b = elect_leader(list(reversed(alive)), seed=11, term=term)
            assert a == b
            assert a in alive

    def test_terms_spread_leadership(self):
        alive = list(range(8))
        leaders = {elect_leader(alive, seed=7, term=t) for t in range(32)}
        assert len(leaders) > 1

    def test_empty_cluster_rejected(self):
        with pytest.raises(ClusterError):
            elect_leader([], seed=0, term=1)


# ---------------------------------------------------------------------------
# Adaptive floor policy
# ---------------------------------------------------------------------------


def _policy(base=1, lo=1, hi=3, **cfg):
    ft = FaultToleranceConfig(mode=FTMode.REPLICATION, ft_level=base,
                              ft_level_min=lo, ft_level_max=hi)
    return FtPolicy(ft, FtPolicyConfig(**cfg) if cfg else None)


class TestFtPolicy:
    def test_failure_raises_target_capped(self):
        policy = _policy(base=1, lo=1, hi=3)
        policy.on_failure(2, count=1)
        assert policy.floor_target == 2
        policy.on_failure(3, count=5)
        assert policy.floor_target == 3  # capped at ft_level_max

    def test_flap_raises_at_most_one_above_base(self):
        policy = _policy(base=1, lo=1, hi=3)
        for it in range(4):
            policy.on_flap(it)
        assert policy.floor_target == 2
        # A flap never lowers an already-raised target.
        policy.on_failure(5, count=2)
        policy.on_flap(6)
        assert policy.floor_target == 3

    def test_relax_after_cooldown(self):
        policy = _policy(base=1, lo=1, hi=3, cooldown=2)
        policy.on_failure(0, count=2)
        assert policy.floor_target == 3
        policy.on_barrier(1)
        assert policy.floor_target == 3  # still inside the window
        policy.on_barrier(2)
        assert policy.floor_target == 2  # one step per cooldown
        policy.on_barrier(3)
        assert policy.floor_target == 2  # quiet clock restarted
        policy.on_barrier(4)
        assert policy.floor_target == 1
        kinds = [kind for _it, kind, _f in policy.events]
        assert kinds == ["failure", "relax", "relax"]

    def test_enforced_is_min_of_target_and_achieved(self):
        policy = _policy()
        policy.on_failure(0, count=2)
        policy.floor_achieved = 1
        assert policy.floor_enforced == 1
        policy.floor_achieved = 3
        assert policy.floor_enforced == policy.floor_target

    def test_backoff_and_breaker(self):
        policy = _policy(cooldown=6, repair_batch=8,
                         breaker_threshold=2, breaker_quiet=3)
        policy.on_failure(0, count=2)
        assert policy.repair_allowance() == 8
        policy.repair_result(8, 0)  # futile round 1 -> backoff 1
        assert policy.repair_allowance() == 0
        assert policy.repair_allowance() == 8
        policy.repair_result(8, 0)  # futile round 2 -> breaker opens
        assert policy.breaker_open
        # Open breaker: quiet barriers, then a quarter-batch probe.
        probes = [policy.repair_allowance() for _ in range(3)]
        assert probes[:2] == [0, 0] and probes[2] == 2
        # Full progress closes the breaker and resets the ladder.
        policy.repair_result(2, 2)
        assert not policy.breaker_open
        assert policy.repair_allowance() == 8


# ---------------------------------------------------------------------------
# Cluster membership state machine
# ---------------------------------------------------------------------------


class TestClusterMembership:
    def _cluster(self, n=4, standby=1):
        return Cluster(ClusterConfig(num_nodes=n, num_standby=standby,
                                     seed=5))

    def test_join_lifecycle(self):
        cluster = self._cluster()
        epoch0 = cluster.membership_epoch
        nid = cluster.join_node()
        assert nid > max(range(4))  # above workers and standby pool
        assert cluster.membership_epoch == epoch0 + 1
        assert cluster.expected_workers() == 5
        assert not cluster.read_eligible(nid)  # state still arriving
        assert cluster.placement_eligible(nid)  # may receive state
        cluster.finish_join(nid)
        assert cluster.read_eligible(nid)
        assert cluster.membership_epoch == epoch0 + 2

    def test_drain_lifecycle(self):
        cluster = self._cluster()
        epoch0 = cluster.membership_epoch
        cluster.begin_drain(1)
        assert not cluster.read_eligible(1)
        assert not cluster.placement_eligible(1)
        assert cluster.expected_workers() == 4  # not retired yet
        cluster.retire_node(1)
        assert cluster.expected_workers() == 3
        assert not cluster.read_eligible(1)
        assert cluster.membership_epoch > epoch0

    def test_abort_transition_restores_eligibility(self):
        cluster = self._cluster()
        cluster.begin_drain(2)
        cluster.abort_transition(2)
        assert cluster.read_eligible(2)
        assert cluster.placement_eligible(2)


# ---------------------------------------------------------------------------
# move_master
# ---------------------------------------------------------------------------


class TestMoveMaster:
    def _engine(self, graph):
        return make_engine(graph, "pagerank", num_nodes=5, ft_level=1,
                           max_iterations=10, seed=11, vectorized=False)

    def test_preserves_in_edge_order_and_copies(self, graph):
        engine = self._engine(graph)
        # Pick a vertex with in-edges and move its master onto a node
        # that already hosts a replica: the copy count must then stay
        # constant (src is demoted in place to a replica seat).
        gid = max(range(graph.num_vertices),
                  key=lambda g: graph.in_degree(g))
        src = engine.master_node_of[gid]
        src_lg = engine.local_graphs[src]
        slot = src_lg.slot_of(gid)
        order_before = [(src_lg.slots[p].gid, w) for p, w in slot.in_edges]
        copies_before = 1 + len(slot.meta.replica_positions)
        mirrors_before = len(slot.meta.mirror_nodes)
        dst = min(slot.meta.replica_positions)

        move_master(engine, gid, dst)

        assert engine.master_node_of[gid] == dst
        dst_lg = engine.local_graphs[dst]
        moved = dst_lg.slot_of(gid)
        assert moved.is_master
        order_after = [(dst_lg.slots[p].gid, w) for p, w in moved.in_edges]
        assert order_after == order_before
        assert 1 + len(moved.meta.replica_positions) == copies_before
        assert len(moved.meta.mirror_nodes) == mirrors_before
        # The outgoing master was demoted in place, not deleted.
        assert not src_lg.slot_of(gid).is_master
        assert src in moved.meta.replica_positions

    def test_move_is_value_neutral(self, graph):
        baseline = run_job(graph, "pagerank", num_nodes=5, ft_level=1,
                           max_iterations=10, seed=11).values
        engine = self._engine(graph)
        for gid in range(0, graph.num_vertices, 17):
            src = engine.master_node_of[gid]
            dst = next(n for n in sorted(engine.local_graphs) if n != src)
            move_master(engine, gid, dst)
        # Drain the transfer-accounting traffic, as the membership
        # manager does after each barrier's batch of moves.
        for node in engine.local_graphs:
            engine.cluster.network.deliver(node)
        assert engine.run().values == baseline


# ---------------------------------------------------------------------------
# Elastic runs on the simulator
# ---------------------------------------------------------------------------


class TestElasticRuns:
    def test_join_drain_flap_bit_identical(self, graph):
        baseline = run_job(graph, "pagerank", num_nodes=6, ft_level=1,
                           max_iterations=12, seed=11)
        elastic = run_job(graph, "pagerank", num_nodes=6, ft_level=1,
                          max_iterations=12, seed=11,
                          membership=[(2, "join", None), (4, "flap", 2),
                                      (5, "drain", 1)])
        assert elastic.values == baseline.values
        assert elastic.membership["joins"] == 1
        assert elastic.membership["flaps"] == 1
        assert elastic.membership["epoch"] >= 2
        assert elastic.membership["moves"] > 0

    def test_drain_retires_node_and_removes_state(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=6, ft_level=1,
                             max_iterations=14, seed=11,
                             membership=[(1, "drain", 2)])
        result = engine.run()
        assert result.membership["drains"] == 1
        assert 2 not in engine.local_graphs
        assert not engine.cluster.read_eligible(2)
        assert all(node != 2 for node in engine.master_node_of)

    def test_membership_requires_replication(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             ft_mode="none", max_iterations=4, seed=1)
        with pytest.raises(ConfigError):
            engine.membership.request_join()

    @pytest.mark.parametrize("overrides,reason", [
        (dict(partition="random_vertex_cut",
              membership=((3, "join", None),)), "edge-cut"),
        (dict(membership=((1, "drain", 9),)), "cannot drain rank 9"),
        (dict(membership=((2, "join", None, 0),)), "count >= 1"),
    ])
    def test_impossible_schedule_refused_before_any_superstep(
            self, graph, overrides, reason):
        """Refused inside ``make_engine``, not when the event fires."""
        with pytest.raises(ConfigError, match=reason):
            make_engine(graph, "pagerank", **{
                "num_nodes": 4, "ft_level": 1, "max_iterations": 6,
                **overrides})

    def test_join_count_below_one_refused(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                             max_iterations=4, seed=1)
        with pytest.raises(ConfigError, match="count >= 1"):
            engine.membership.request_join(0)
        assert engine.cluster.membership_epoch == 0
        assert sorted(engine.local_graphs) == [0, 1, 2, 3]

    def test_flap_only_run_reports_membership(self, graph):
        """One presence rule: a recorded flap is control-plane work, so
        a flap-only run reports (and the backend forwards) it."""
        spec = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=6, membership=((2, "flap", 1),))
        memb = SimulatorBackend().run(graph, spec).extra["membership"]
        assert memb["flaps"] == 1
        assert (memb["joins"], memb["drains"], memb["moves"]) == (0, 0, 0)
        static = run_job(graph, "pagerank", num_nodes=4, ft_level=1,
                         max_iterations=6)
        assert static.membership == {}

    def test_adaptive_floor_rises_and_relaxes(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=6, ft_level=1,
                             ft_level_min=1, ft_level_max=3,
                             max_iterations=16, seed=11, num_standby=2)
        engine.schedule_failure(3, [2], "compute")
        result = engine.run()
        events = result.membership["floor_events"]
        kinds = [kind for _it, kind, _f in events]
        assert "failure" in kinds
        assert "relax" in kinds  # quiet tail relaxed the target
        rise = next(f for _it, kind, f in events if kind == "failure")
        assert rise == 2
        assert events[-1][2] == 1  # back at the resting floor
        assert result.values == run_job(
            graph, "pagerank", num_nodes=6, ft_level=1,
            max_iterations=16, seed=11).values

    def test_heartbeat_knobs_reach_detector(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                             max_iterations=4, seed=1,
                             heartbeat_interval_s=0.25,
                             heartbeat_misses=40)
        assert engine.cluster.detector.interval_s == 0.25
        assert engine.cluster.detector.misses == 40

    def test_suspicion_gauges_published(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                             max_iterations=4, seed=1)
        engine.run()
        for nid in range(4):
            assert engine.metrics.gauge(
                f"ft.suspicion.node.{nid}") is not None


# ---------------------------------------------------------------------------
# MembershipInvariant
# ---------------------------------------------------------------------------


class TestMembershipInvariant:
    def test_clean_engine_passes(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                             max_iterations=4, seed=1)
        MembershipInvariant().check_all(engine)

    def test_detects_copy_on_retired_node(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=5, ft_level=1,
                             max_iterations=14, seed=11,
                             membership=[(1, "drain", 1)])
        result = engine.run()
        assert result.membership["drains"] == 1
        # Corrupt: record a replica position on the retired node.
        lg = engine.local_graphs[engine.master_node_of[0]]
        lg.slot_of(0).meta.replica_positions[1] = 0
        with pytest.raises(InvariantViolation):
            MembershipInvariant().check_all(engine)


# ---------------------------------------------------------------------------
# Serve routing under membership changes
# ---------------------------------------------------------------------------


class TestServeRouting:
    def test_no_read_from_draining_or_joining_node(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=5, ft_level=1,
                             max_iterations=14, seed=11,
                             membership=[(2, "join", None),
                                         (4, "drain", 1)])
        workload = OpenLoopWorkload(graph.num_vertices, 500, qps=50.0,
                                    seed=7)
        server = ReadServer(engine, seed=5)
        pump = ServePump(server, WorkloadCursor(workload, 14))
        engine.attach_serve(pump)

        cluster = engine.cluster
        violations = []
        routed = []
        original = server.router.route_reads

        def checked(gids):
            nodes, positions, degraded = original(gids)
            ineligible = cluster._transitioning | cluster._retired
            routed.append(gids.size)
            violations.extend((gid, node) for gid, node in zip(
                gids.tolist(), nodes.tolist()) if node in ineligible)
            return nodes, positions, degraded

        server.router.route_reads = checked
        result = engine.run()
        pump.finish()
        assert violations == []
        assert sum(routed) >= 500
        assert server.stats.misses == 0
        assert result.membership["joins"] == 1

    def test_router_epoch_cache_invalidation(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                             max_iterations=4, seed=1)
        server = ReadServer(engine, seed=0)
        assert server.router.membership_ineligible() == frozenset()
        engine.cluster.begin_drain(1)
        assert 1 in server.router.membership_ineligible()
        engine.cluster.abort_transition(1)
        assert server.router.membership_ineligible() == frozenset()


# ---------------------------------------------------------------------------
# The issue's acceptance schedule, under the differential oracle
# ---------------------------------------------------------------------------


class TestAcceptanceSchedule:
    def test_chaos_with_leader_kill_matches_failure_free(self, graph):
        schedule = (FailureSchedule(seed=23)
                    .join(2, count=2)
                    .flap(4, target=2)
                    .drain(6, target="most-loaded")
                    .crash(8, phase="gather", target="random")
                    .crash(8, phase="recovery", target="leader"))
        report = run_differential(
            graph, "pagerank", schedule,
            num_nodes=6, ft_level=1, ft_level_min=1, ft_level_max=3,
            max_iterations=14, seed=11, num_standby=3)
        assert report.matches, report.summary()
        assert report.invariant_checks > 0
        membership = report.chaos_result.membership
        assert membership["joins"] == 2
        assert membership["flaps"] >= 1
        # The leader was killed mid-recovery and a new term started.
        assert membership["leader_term"] >= 2

    def test_cross_backend_membership_spec(self, graph):
        spec = BackendSpec(
            algorithm="pagerank", num_nodes=5, ft_level=1,
            ft_level_min=1, ft_level_max=3, max_iterations=12, seed=11,
            num_standby=2,
            membership=((2, "join", None), (4, "flap", 1),
                        (6, "drain", 2)),
            failures=((8, (0,), "after_commit"),))
        sim = SimulatorBackend().run(graph, spec)
        mp_backend = pytest.importorskip("repro.exec.mp")
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        with mp_backend.MultiprocessingBackend() as backend:
            mp = backend.run(graph, spec)
        assert mp.values == sim.values
        assert mp.extra["membership"]["joins"] == 1
        assert mp.extra["membership"]["drains"] == 1
        assert mp.extra["membership"]["leader_term"] >= 1
        assert sim.extra["membership"]["leader_term"] >= 1
        # One report function: the same keys (mp adds ``reshapes``)
        # and the same membership counts on both backends.
        sim_memb, mp_memb = sim.extra["membership"], mp.extra["membership"]
        assert set(mp_memb) == set(sim_memb) | {"reshapes"}
        for key in ("joins", "drains", "flaps"):
            assert mp_memb[key] == sim_memb[key], key

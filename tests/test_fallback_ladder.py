"""Recovery fallback ladder, post-recovery repair and degraded mode.

DESIGN.md §9: when the configured recovery strategy cannot handle a
failure, the engine walks a ladder — Rebirth → Migration → safety-net
checkpoint — and only raises :class:`UnrecoverableFailureError` (with
structured context) when every rung fails.  After any successful
recovery the replication level is repaired back toward ``ft_level``;
when the surviving cluster is too small for that, the run completes in
explicitly reported degraded mode.
"""

from __future__ import annotations

import pytest

from repro.api import make_engine, run_job
from repro.chaos.controller import ChaosController
from repro.chaos.oracle import run_differential
from repro.chaos.schedule import FailureSchedule
from repro.config import FaultToleranceConfig, FTMode
from repro.errors import (ConfigError, NoStandbyNodeError,
                          UnrecoverableFailureError)
from repro.ft import ladder
from repro.graph import generators

PARTS = ["hash_edge_cut", "random_vertex_cut"]


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(200, alpha=2.0, seed=17, avg_degree=5.0,
                                selfish_frac=0.1)


@pytest.fixture(scope="module")
def baselines(graph):
    return {part: run_job(graph, "pagerank", num_nodes=6,
                          max_iterations=8, partition=part).values
            for part in PARTS}


def assert_matches(result, baseline):
    for gid, base_v in baseline.items():
        assert result.values[gid] == pytest.approx(base_v, rel=1e-12), \
            f"vertex {gid} diverged after recovery"


class TestFallbackRungs:
    """Each rung engages exactly when the one above it cannot."""

    @pytest.mark.parametrize("partition", PARTS)
    def test_standby_exhausted_falls_back_to_migration(
            self, graph, baselines, partition):
        # Two spares cover the first double failure; the second finds
        # the pool dry and must ride the Migration rung instead of
        # dying with NoStandbyNodeError.
        result = run_job(graph, "pagerank", num_nodes=6, max_iterations=8,
                         partition=partition, ft_level=2, num_standby=2,
                         recovery="rebirth",
                         failures=[(2, (0, 1)), (5, (2, 3))])
        assert [r.strategy for r in result.recoveries] == \
            ["rebirth", "migration"]
        assert result.fallbacks == {"migration": 1}
        assert_matches(result, baselines[partition])

    def test_zero_standby_first_failure_uses_migration(
            self, graph, baselines):
        result = run_job(graph, "pagerank", num_nodes=6, max_iterations=8,
                         ft_level=1, num_standby=0, recovery="rebirth",
                         failures=[(3, (2,))])
        assert result.recoveries[0].strategy == "migration"
        assert result.fallbacks == {"migration": 1}
        assert_matches(result, baselines["hash_edge_cut"])

    @pytest.mark.parametrize("partition", PARTS)
    def test_replication_exhausted_uses_safety_checkpoint(
            self, graph, baselines, partition):
        # Three simultaneous failures at ft_level=1: some vertex loses
        # every in-memory copy, so only the safety-net checkpoint rung
        # can recover — and the run still converges to the baseline.
        result = run_job(graph, "pagerank", num_nodes=6, max_iterations=8,
                         partition=partition, ft_level=1, num_standby=3,
                         recovery="rebirth", safety_checkpoint_interval=1,
                         failures=[(3, (0, 1, 2))])
        assert result.recoveries[0].strategy == "safety-checkpoint"
        assert result.fallbacks == {"checkpoint": 1}
        assert_matches(result, baselines[partition])

    def test_safety_checkpoint_recovers_without_spares(self, graph,
                                                       baselines):
        # The checkpoint rung reloads everything from persistent
        # storage, so rebooted machines can take the crashed slots even
        # with a dry standby pool.
        result = run_job(graph, "pagerank", num_nodes=6, max_iterations=8,
                         ft_level=1, num_standby=0, recovery="rebirth",
                         safety_checkpoint_interval=2,
                         failures=[(3, (0, 1))])
        assert result.recoveries[0].strategy == "safety-checkpoint"
        assert_matches(result, baselines["hash_edge_cut"])

    def test_every_rung_failing_raises_structured_error(self, graph):
        # >K failures without the safety net: the error reports what
        # was attempted, what was lost and who survived.
        with pytest.raises(UnrecoverableFailureError) as err:
            run_job(graph, "pagerank", num_nodes=6, max_iterations=8,
                    ft_level=1, num_standby=3, recovery="rebirth",
                    failures=[(3, (0, 1, 2))])
        assert err.value.lost_vertices > 0
        assert "replication:exhausted" in err.value.rungs_attempted
        assert err.value.surviving_nodes == (3, 4, 5)


def crashed_engine(graph, failed, **kwargs):
    """An engine at iteration 0 whose ``failed`` nodes just crashed."""
    engine = make_engine(graph, "pagerank", num_nodes=6, max_iterations=8,
                         **kwargs)
    for node in failed:
        engine.cluster.crash(node)
    return engine


class TestLadderOutcomes:
    """One case per way :func:`repro.ft.ladder.recover` can end."""

    @pytest.mark.parametrize("failed,kwargs,strategy,rung,instants", [
        # Enough live standbys: the configured strategy handles it.
        ((0,), dict(ft_level=1, num_standby=1, recovery="rebirth"),
         "rebirth", "rebirth", []),
        # Dry pool: Rebirth raises before consuming anything and
        # Migration takes over.
        ((0,), dict(ft_level=1, num_standby=0, recovery="rebirth"),
         "migration", "migration",
         ["recovery.standby_exhausted", "recovery.fallback"]),
        # >K failures: replication is exhausted, both in-memory rungs
        # are skipped and the safety snapshot recovers.
        ((0, 1, 2), dict(ft_level=1, num_standby=3, recovery="rebirth",
                         safety_checkpoint_interval=1),
         "safety-checkpoint", "checkpoint", ["recovery.fallback"]),
    ])
    def test_recovers_on_the_expected_rung(self, graph, failed, kwargs,
                                           strategy, rung, instants):
        from repro.obs import Tracer
        tracer = Tracer()
        engine = crashed_engine(graph, failed, tracer=tracer, **kwargs)
        ladder.recover(engine, failed)
        assert [r.strategy for r in engine.recoveries] == [strategy]
        (protocol,) = tracer.spans("recovery.protocol")
        assert protocol["rung"] == rung
        assert protocol["strategy"] == strategy
        names = [ev["name"] for ev in tracer.events]
        assert [n for n in names if n in ("recovery.standby_exhausted",
                                          "recovery.fallback")] == instants
        assert not engine.in_recovery
        assert engine.cluster.detector.newly_failed() == set()

    @pytest.mark.parametrize("failed,kwargs,survivors", [
        # Nothing left to fall back to: >K failures, no safety net.
        ((0, 1, 2), dict(ft_level=1, num_standby=3, recovery="rebirth"),
         (3, 4, 5)),
        # No survivors at all: every master died with every mirror.
        ((0, 1, 2, 3, 4, 5), dict(ft_level=2, num_standby=0,
                                  recovery="migration"), ()),
    ])
    def test_exhausted_replication_is_reported_exactly(
            self, graph, failed, kwargs, survivors):
        from repro.ft import _recovery_common as common
        engine = crashed_engine(graph, failed, **kwargs)
        lost = common.find_lost_vertices(engine, set(failed))
        with pytest.raises(UnrecoverableFailureError) as err:
            ladder.recover(engine, failed)
        assert err.value.rungs_attempted == ("replication:exhausted",)
        assert err.value.lost_vertices == len(lost) > 0
        assert err.value.surviving_nodes == survivors
        if not survivors:
            assert err.value.lost_vertices == graph.num_vertices

    def test_failing_rungs_are_listed_in_ladder_order(self, graph,
                                                      monkeypatch):
        # Rebirth finds the pool dry and Migration fails mid-protocol:
        # the error names both, in order, and carries the first rung
        # error's lost-vertex count.
        from repro.ft.migration import MigrationRecovery

        def doomed(self, failed):
            raise UnrecoverableFailureError("injected", lost_vertices=7,
                                            rungs_attempted=("migration",))

        monkeypatch.setattr(MigrationRecovery, "recover", doomed)
        engine = crashed_engine(graph, (0,), ft_level=1, num_standby=0,
                                recovery="rebirth")
        with pytest.raises(UnrecoverableFailureError) as err:
            ladder.recover(engine, (0,))
        assert err.value.rungs_attempted == ("rebirth:standby-exhausted",
                                             "migration")
        assert err.value.lost_vertices == 7
        assert err.value.surviving_nodes == (1, 2, 3, 4, 5)

    def test_each_rung_checks_its_own_precondition_first(self, graph):
        # One spare cannot cover two crashed nodes: Rebirth says so
        # before it has consumed the spare or emptied a local graph, so
        # the next rung finds the cluster as the failure left it.
        from repro.ft.checkpoint import CheckpointRecovery
        from repro.ft.migration import MigrationRecovery
        from repro.ft.rebirth import RebirthRecovery
        assert [r.rung for r in (RebirthRecovery, MigrationRecovery,
                                 CheckpointRecovery)] == [
            "rebirth", "migration", "checkpoint"]
        engine = crashed_engine(graph, (0, 1), ft_level=2, num_standby=1)
        sizes = {n: len(lg.slots) for n, lg in engine.local_graphs.items()}
        with pytest.raises(NoStandbyNodeError):
            RebirthRecovery(engine).recover((0, 1))
        assert len(engine.cluster.live_standby_nodes()) == 1
        assert engine.cluster.node(0).is_crashed
        assert sizes == {n: len(lg.slots)
                         for n, lg in engine.local_graphs.items()}
        assert MigrationRecovery(engine).recover((0, 1)).strategy \
            == "migration"

    @pytest.mark.parametrize("partition", PARTS)
    def test_direct_calls_report_what_the_ladder_reports(self, graph,
                                                         partition):
        # The same double failure at ft_level=1, three ways: one scan
        # decides what is lost, so the three counts cannot disagree.
        from repro.ft.migration import MigrationRecovery
        from repro.ft.rebirth import RebirthRecovery
        failed = (1, 4)
        kwargs = dict(ft_level=1, num_standby=2, partition=partition)
        with pytest.raises(UnrecoverableFailureError) as via_ladder:
            ladder.recover(crashed_engine(graph, failed, **kwargs), failed)
        assert via_ladder.value.lost_vertices > 0
        for recovery in (RebirthRecovery, MigrationRecovery):
            engine = crashed_engine(graph, failed, **kwargs)
            with pytest.raises(UnrecoverableFailureError) as direct:
                recovery(engine).recover(failed)
            assert direct.value.rungs_attempted == (recovery.rung,)
            assert direct.value.lost_vertices \
                == via_ladder.value.lost_vertices
            assert direct.value.surviving_nodes == (0, 2, 3, 5)


class TestPostRecoveryRepair:
    """Recovery restores the data; repair restores the *safety margin*."""

    @pytest.mark.parametrize("partition", PARTS)
    @pytest.mark.parametrize("strategy", ["rebirth", "migration"])
    def test_survives_second_k_failure_after_repair(
            self, graph, baselines, partition, strategy):
        # Acceptance scenario: crash k nodes, then k *different* nodes
        # a few iterations later.  Migration consumes mirrors when it
        # promotes them, so without the repair pass the second failure
        # would find vertices below K+1 copies.
        k = 2
        report = run_differential(
            graph, "pagerank",
            FailureSchedule(seed=1)
            .crash(2, phase="gather", target=0)
            .crash(2, phase="gather", target=1)
            .crash(5, phase="gather", target=2)
            .crash(5, phase="gather", target=3),
            baseline=baselines[partition],
            num_nodes=6, max_iterations=8, partition=partition,
            ft_level=k, num_standby=2 * k, recovery=strategy)
        assert report.matches, report.summary()
        assert report.recoveries == 2
        if strategy == "migration":
            assert report.chaos_result.recoveries[0] \
                .repair_replicas_created > 0

    def test_repair_is_traced_and_charged(self, graph):
        result = run_job(graph, "pagerank", num_nodes=6, max_iterations=8,
                         ft_level=2, num_standby=0, recovery="migration",
                         failures=[(3, (0, 1))])
        stats = result.recoveries[0]
        assert stats.repair_replicas_created > 0
        assert stats.repair_s > 0.0
        assert stats.repaired_vertices > 0
        # Repair time is charged separately so total_s keeps the
        # paper's reload+reconstruct+replay meaning.
        assert stats.total_s == pytest.approx(
            stats.reload_s + stats.reconstruct_s + stats.replay_s)

    def test_repair_span_in_trace(self, graph, tmp_path):
        from repro.obs import Tracer
        tracer = Tracer()
        engine = make_engine(graph, "pagerank", num_nodes=6,
                             max_iterations=8, ft_level=2, num_standby=0,
                             recovery="migration", tracer=tracer)
        engine.schedule_failure(3, (0, 1))
        engine.run()
        names = [ev["name"] for ev in tracer.events]
        assert "recovery.repair" in names


class TestDegradedMode:
    def test_small_cluster_completes_degraded(self, graph):
        # 4 nodes at ft_level=2: after two crashes only 2 survive, so
        # at most one mirror per master can exist — the run completes
        # and reports the degradation instead of failing.
        baseline = run_job(graph, "pagerank", num_nodes=4,
                           max_iterations=8).values
        result = run_job(graph, "pagerank", num_nodes=4, max_iterations=8,
                         ft_level=2, num_standby=0, recovery="migration",
                         failures=[(2, (0, 1))])
        assert result.ft_degraded is True
        assert result.ft_level_current == 1
        assert_matches(result, baseline)

    def test_full_repair_clears_degraded_flag(self, graph):
        result = run_job(graph, "pagerank", num_nodes=6, max_iterations=8,
                         ft_level=2, num_standby=0, recovery="migration",
                         failures=[(3, (0, 1))])
        assert result.ft_degraded is False
        assert result.ft_level_current == 2

    def test_healthy_run_reports_full_level(self, graph):
        result = run_job(graph, "pagerank", num_nodes=6, max_iterations=4,
                         ft_level=2, num_standby=0)
        assert result.ft_degraded is False
        assert result.ft_level_current == 2
        assert result.fallbacks == {}

    def test_gauges_published_on_non_replication_early_return(self, graph):
        # Regression: ``update_ft_gauges`` used to return before
        # publishing on the non-replication path, so a metrics snapshot
        # of such a run carried no (or stale) ``ft.*`` gauges.
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             max_iterations=3, ft_mode="none")
        # Construction already walked the early-return path once.
        assert engine.metrics.gauge("ft.level_current") == 0
        assert engine.metrics.gauge("ft.degraded") is False
        # Poison the gauges the way a stale prior publish would; the
        # early-return path must overwrite, not skip, them.
        engine.metrics.set_gauge("ft.level_current", 2)
        engine.metrics.set_gauge("ft.degraded", True)
        ladder.update_ft_gauges(engine)
        assert engine.metrics.gauge("ft.level_current") == 0
        assert engine.metrics.gauge("ft.degraded") is False
        engine.run()
        assert engine.metrics.gauge("ft.level_current") == 0
        assert engine.metrics.gauge("ft.degraded") is False

    def test_gauges_published_in_replication_mode(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=6,
                             max_iterations=4, ft_level=2, num_standby=0)
        engine.run()
        assert engine.metrics.gauge("ft.level_current") == 2
        assert engine.metrics.gauge("ft.degraded") is False


class TestMidProtocolRestart:
    """Satellite: a crash landing *during* recovery is handled at once
    (Section 5.3.2), not deferred to the next barrier."""

    @pytest.mark.parametrize("strategy", ["rebirth", "migration"])
    def test_crash_during_protocol_restarts_recovery(
            self, graph, baselines, strategy):
        schedule = (FailureSchedule(seed=5)
                    .crash(2, phase="gather", target=0)
                    .crash(2, phase="recovery_protocol", target="random"))
        engine = make_engine(graph, "pagerank", num_nodes=6,
                             max_iterations=8, ft_level=2, num_standby=4,
                             recovery=strategy)
        ChaosController(schedule).attach(engine)
        result = engine.run()
        assert len(result.recoveries) == 2
        assert engine.metrics.value("recovery.restarts") == 1
        assert_matches(result, baselines["hash_edge_cut"])

    def test_restart_targets_only_still_crashed_nodes(self, graph):
        # The first pass revives node 0; the restarted pass must not
        # treat the healthy node 0 as failed again.
        schedule = (FailureSchedule(seed=5)
                    .crash(2, phase="gather", target=0)
                    .crash(2, phase="recovery_protocol", target=3))
        engine = make_engine(graph, "pagerank", num_nodes=6,
                             max_iterations=8, ft_level=2, num_standby=4,
                             recovery="rebirth")
        ChaosController(schedule).attach(engine)
        result = engine.run()
        assert [list(r.failed_nodes) for r in result.recoveries] == \
            [[0], [3]]


class TestStandbyLiveness:
    """Satellite: dead spares are never handed out as Rebirth targets."""

    def test_claim_standby_skips_crashed_spare(self):
        from repro.cluster.cluster import Cluster
        from repro.config import ClusterConfig
        cluster = Cluster(ClusterConfig(num_nodes=2, num_standby=2))
        spares = cluster.standby_nodes()
        cluster.crash(spares[0])
        assert cluster.live_standby_nodes() == [spares[1]]
        assert cluster.claim_standby() == spares[1]
        with pytest.raises(NoStandbyNodeError):
            cluster.claim_standby()

    def test_rebirth_uses_surviving_spare(self, graph, baselines):
        schedule = (FailureSchedule(seed=2)
                    .crash(1, phase="superstep_start", target="standby")
                    .crash(3, phase="gather", target=0))
        report = run_differential(
            graph, "pagerank", schedule,
            baseline=baselines["hash_edge_cut"],
            num_nodes=6, max_iterations=8, ft_level=1, num_standby=2,
            recovery="rebirth")
        assert report.matches, report.summary()
        assert report.chaos_result.recoveries[0].strategy == "rebirth"

    def test_all_spares_dead_falls_back_to_migration(self, graph,
                                                     baselines):
        schedule = (FailureSchedule(seed=2)
                    .crash(1, phase="superstep_start", target="standby",
                           count=2)
                    .crash(3, phase="gather", target=0))
        report = run_differential(
            graph, "pagerank", schedule,
            baseline=baselines["hash_edge_cut"],
            num_nodes=6, max_iterations=8, ft_level=1, num_standby=2,
            recovery="rebirth")
        assert report.matches, report.summary()
        assert report.chaos_result.recoveries[0].strategy == "migration"
        assert report.chaos_result.fallbacks == {"migration": 1}


class TestTerminalPaths:
    """Satellite: the paths that must end in a structured error."""

    def test_migration_with_no_survivors(self, graph):
        from repro.ft.migration import MigrationRecovery
        engine = make_engine(graph, "pagerank", num_nodes=3,
                             max_iterations=4, ft_level=1, num_standby=0,
                             recovery="migration")
        for node in range(3):
            engine.cluster.crash(node)
        with pytest.raises(UnrecoverableFailureError) as err:
            MigrationRecovery(engine).recover((0, 1, 2))
        assert err.value.rungs_attempted == ("migration",)
        assert err.value.lost_vertices == graph.num_vertices

    def test_replication_without_mirrors_is_exhausted(self, graph):
        # ft_level=0 replication keeps no mirrors at all: any master
        # loss exhausts replication immediately (only the checkpoint
        # rung could help, and it is not configured here).
        from repro.api import make_program
        from repro.config import (ClusterConfig, EngineConfig, JobConfig,
                                  RecoveryStrategy)
        from repro.engine.engine import Engine
        ft = FaultToleranceConfig(mode=FTMode.REPLICATION, ft_level=1,
                                  recovery=RecoveryStrategy.REBIRTH)
        object.__setattr__(ft, "ft_level", 0)
        job = JobConfig(cluster=ClusterConfig(num_nodes=4, num_standby=2),
                        engine=EngineConfig(max_iterations=4), ft=ft)
        engine = Engine(graph, make_program("pagerank", graph), job=job)
        engine.schedule_failure(2, (0,))
        with pytest.raises(UnrecoverableFailureError) as err:
            engine.run()
        assert err.value.lost_vertices > 0
        assert "replication:exhausted" in err.value.rungs_attempted

    def test_lost_vertices_propagates_through_run(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=6,
                             max_iterations=8, ft_level=1, num_standby=3,
                             recovery="migration")
        engine.schedule_failure(3, (0, 1, 2))
        with pytest.raises(UnrecoverableFailureError) as err:
            engine.run()
        assert err.value.lost_vertices > 0
        assert err.value.surviving_nodes == (3, 4, 5)

    def test_safety_interval_requires_replication_mode(self):
        with pytest.raises(ConfigError):
            FaultToleranceConfig(mode=FTMode.CHECKPOINT,
                                 safety_checkpoint_interval=2)
        with pytest.raises(ConfigError):
            FaultToleranceConfig(mode=FTMode.REPLICATION, ft_level=1,
                                 safety_checkpoint_interval=-1)


class TestRungWriteSets:
    """Each rung invalidates the SoA images of the nodes it writes on
    (DESIGN.md §11); the coherence check rides every commit point."""

    @pytest.mark.parametrize("partition", PARTS)
    def test_restart_that_mixes_rungs_in_one_recover(self, graph,
                                                     baselines, partition):
        """Pass one is a Rebirth (survivors keep their image), the
        crash it provokes finds the pool dry and pass two migrates
        (every survivor rewritten) — inside one ``recover``."""
        from repro.chaos.invariants import InvariantChecker

        def drive(vectorized):
            schedule = (FailureSchedule(seed=5)
                        .crash(2, phase="gather", target=0)
                        .crash(2, phase="recovery_protocol", target=3))
            engine = make_engine(graph, "pagerank", num_nodes=6,
                                 max_iterations=8, partition=partition,
                                 ft_level=2, num_standby=1,
                                 recovery="rebirth", vectorized=vectorized)
            ChaosController(schedule).attach(engine)
            checker = InvariantChecker()
            engine.attach_chaos(checker)
            result = engine.run()
            assert [r.strategy for r in result.recoveries] == \
                ["rebirth", "migration"]
            assert engine.metrics.value("recovery.restarts") == 1
            assert checker.checks > 8
            return result

        result = drive(vectorized=True)
        # Bit-equal to the scalar path under the same schedule (which
        # has no image to go stale), and to the failure-free run up to
        # Migration's vertex-cut fold order.
        assert result.values == drive(vectorized=False).values
        assert_matches(result, baselines[partition])
        if partition == "hash_edge_cut":
            assert result.values == baselines[partition]

    @pytest.mark.parametrize("partition", PARTS)
    def test_migration_promoting_a_survivors_mirror(self, graph,
                                                    baselines, partition):
        from repro.chaos.invariants import InvariantChecker
        engine = make_engine(graph, "pagerank", num_nodes=6,
                             max_iterations=8, partition=partition,
                             ft_level=1, num_standby=0,
                             recovery="migration")
        engine.run(max_iterations=3)
        promoted = {s.gid: n for n, lg in engine.local_graphs.items()
                    if n != 4 for s in lg.iter_mirrors()
                    if s.master_node == 4}
        assert promoted
        engine.schedule_failure(4, [4], "after_commit")
        checker = InvariantChecker()
        engine.attach_chaos(checker)
        result = engine.run()
        assert [r.strategy for r in result.recoveries] == ["migration"]
        # The images the retry computed on know the promoted masters.
        for gid, node in promoted.items():
            topo = engine.local_graphs[node].cached_topology
            assert topo.is_master[engine.local_graphs[node]
                                  .position_of(gid)]
        assert checker.checks > 5
        assert_matches(result, baselines[partition])
        if partition == "hash_edge_cut":
            assert result.values == baselines[partition]

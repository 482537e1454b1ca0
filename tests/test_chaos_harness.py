"""Unit tests for the chaos harness itself (schedule DSL, controller,
invariant checker, oracle plumbing)."""

from __future__ import annotations

import pytest

from repro.chaos import (ChaosController, ChaosEvent, FailureSchedule,
                         InvariantChecker, InvariantViolation,
                         run_differential, run_with_chaos, values_close)
from repro.cluster.network import Message, MessageKind
from repro.errors import ConfigError
from repro.graph import generators


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(60, alpha=2.0, seed=7, name="harness-pl")


def small_kwargs(**over):
    kw = dict(num_nodes=4, ft_mode="replication", recovery="rebirth",
              partition="hash_edge_cut", max_iterations=6, ft_level=1,
              num_standby=2)
    kw.update(over)
    return kw


class TestScheduleDSL:
    def test_event_validation(self):
        with pytest.raises(ConfigError):
            ChaosEvent(-1)
        with pytest.raises(ConfigError):
            ChaosEvent(0, phase="mid-barrier")
        with pytest.raises(ConfigError):
            ChaosEvent(0, target="busiest")
        with pytest.raises(ConfigError):
            ChaosEvent(0, count=0)

    def test_builder_chaining(self):
        sched = (FailureSchedule(seed=5)
                 .crash(1, phase="gather")
                 .crash(2, phase="barrier", target="most-loaded", count=2)
                 .with_message_faults(duplicate=0.1, delay=0.2))
        assert len(sched.events) == 2
        assert sched.total_crashes == 3
        assert sched.message_faults_enabled
        assert "seed=5" in sched.describe()

    def test_probability_validation(self):
        with pytest.raises(ConfigError):
            FailureSchedule().with_message_faults(duplicate=1.5)

    def test_standby_events_not_counted(self):
        sched = FailureSchedule().crash(1, target="standby")
        assert sched.total_crashes == 0

    def test_random_is_deterministic(self):
        a = FailureSchedule.random(123, max_iterations=5, max_concurrent=2)
        b = FailureSchedule.random(123, max_iterations=5, max_concurrent=2)
        assert a.events == b.events
        assert (a.duplicate_prob, a.delay_prob) == \
               (b.duplicate_prob, b.delay_prob)
        c = FailureSchedule.random(124, max_iterations=5, max_concurrent=2)
        assert (a.events, a.duplicate_prob, a.delay_prob) != \
               (c.events, c.duplicate_prob, c.delay_prob) or True
        # Different seeds must differ *somewhere* over a small sample.
        assert any(
            FailureSchedule.random(s, max_iterations=5).events != a.events
            for s in range(200, 210))

    def test_random_respects_concurrency_budget(self):
        for seed in range(50):
            sched = FailureSchedule.random(seed, max_iterations=6,
                                           max_concurrent=2, max_events=4)
            per_iter: dict[int, int] = {}
            for ev in sched.events:
                per_iter[ev.iteration] = per_iter.get(ev.iteration, 0) \
                    + ev.count
            assert all(v <= 2 for v in per_iter.values()), sched.describe()
            assert sched.drop_prob == 0.0  # drops violate fail-stop

    def test_scaled_to_caps_counts(self):
        sched = FailureSchedule(seed=1).crash(0, count=3).crash(1, count=1)
        scaled = sched.scaled_to(1)
        assert [e.count for e in scaled.events] == [1, 1]


class TestController:
    def test_events_fire_once_across_rollback(self, graph):
        sched = FailureSchedule(seed=3).crash(2, phase="gather",
                                              target="random")
        result, controller, _ = run_with_chaos(
            graph, "pagerank", sched, **small_kwargs())
        assert len(controller.fired_events) == 1
        assert len(result.recoveries) == 1
        # The crashed iteration was retried without re-firing the event.
        assert result.recoveries[0].at_iteration == 2

    def test_expired_events_do_not_resurrect(self, graph):
        # Checkpoint recovery rewinds engine.iteration below the event's
        # iteration; the fired/expired bookkeeping must not re-fire it.
        sched = FailureSchedule(seed=3).crash(3, phase="superstep_start")
        result, controller, _ = run_with_chaos(
            graph, "pagerank", sched, check_invariants=False,
            **small_kwargs(ft_mode="checkpoint", checkpoint_interval=2,
                           checkpoint_in_memory=True))
        assert len(controller.fired_events) == 1
        assert len(result.recoveries) == 1

    def test_standby_crash_is_not_a_worker_failure(self, graph):
        sched = FailureSchedule(seed=3).crash(1, phase="superstep_start",
                                              target="standby")
        result, controller, _ = run_with_chaos(
            graph, "pagerank", sched, **small_kwargs())
        assert len(controller.fired_events) == 1
        assert result.recoveries == []

    def test_target_predicates_resolve_to_live_nodes(self, graph):
        from repro.api import make_engine
        engine = make_engine(graph, "pagerank", **small_kwargs())
        ctl = ChaosController(FailureSchedule(seed=9))
        for predicate in ("most-loaded", "least-loaded", "mirror-heaviest",
                          "random"):
            ev = ChaosEvent(0, target=predicate, count=1)
            targets = ctl.resolve_targets(engine, ev)
            assert len(targets) == 1
            assert targets[0] in engine._alive()

    def test_one_worker_always_survives(self, graph):
        from repro.api import make_engine
        engine = make_engine(graph, "pagerank", **small_kwargs())
        ctl = ChaosController(FailureSchedule(seed=9))
        ev = ChaosEvent(0, target="random", count=99)
        assert len(ctl.resolve_targets(engine, ev)) == 3  # of 4 nodes

    def test_message_verdicts_deterministic(self):
        sched = FailureSchedule(seed=11).with_message_faults(
            duplicate=0.3, delay=0.3)
        msg = Message(MessageKind.SYNC, 0, 1, None, 16)
        verdicts_a = [ChaosController(sched).message_verdict(msg)
                      for _ in range(1)]
        ctl_b = ChaosController(sched)
        assert ctl_b.message_verdict(msg) == verdicts_a[0]

    def test_never_duplicates_gather(self):
        sched = FailureSchedule(seed=11).with_message_faults(duplicate=1.0)
        ctl = ChaosController(sched)
        msg = Message(MessageKind.GATHER, 0, 1, None, 16)
        assert ctl.message_verdict(msg) != "duplicate"
        sync = Message(MessageKind.SYNC, 0, 1, None, 16)
        assert ctl.message_verdict(sync) == "duplicate"

    def test_message_faults_preserve_convergence(self, graph):
        from repro.api import run_job
        baseline = run_job(graph, "pagerank", **small_kwargs()).values
        sched = FailureSchedule(seed=21).with_message_faults(
            duplicate=0.3, delay=0.3)
        report = run_differential(graph, "pagerank", sched,
                                  baseline=baseline, **small_kwargs())
        assert report.matches, report.summary()


class TestInvariantChecker:
    def test_clean_run_passes(self, graph):
        sched = FailureSchedule(seed=1)  # no faults at all
        result, _, checker = run_with_chaos(graph, "pagerank", sched,
                                            **small_kwargs())
        assert checker.checks >= result.num_iterations

    def test_catches_value_divergence(self, graph):
        from repro.api import make_engine
        engine = make_engine(graph, "pagerank", **small_kwargs())
        checker = InvariantChecker(context="unit-test")
        engine.attach_chaos(checker)
        engine.run(max_iterations=1)
        # Corrupt one replica value behind the engine's back.
        for node in engine._alive():
            lg = engine.local_graphs[node]
            slot = next(iter(lg.iter_masters()))
            if not slot.meta.replica_positions:
                continue
            rnode, pos = next(iter(slot.meta.replica_positions.items()))
            engine.local_graphs[rnode].slots[pos].value = -123.0
            break
        with pytest.raises(InvariantViolation, match="unit-test"):
            checker.check_all(engine)

    def test_catches_missing_replica(self, graph):
        from repro.api import make_engine
        engine = make_engine(graph, "pagerank", **small_kwargs())
        checker = InvariantChecker()
        engine.run(max_iterations=1)
        node = engine._alive()[0]
        slot = next(iter(engine.local_graphs[node].iter_masters()))
        slot.meta.replica_positions.clear()
        slot.meta.mirror_nodes.clear()
        with pytest.raises(InvariantViolation, match="copies"):
            checker.check_all(engine)

    @pytest.mark.parametrize("corrupt, match", [
        (lambda copy, slot: copy.replica_positions.update(
            {next(iter(copy.replica_positions)): 10**6}), "holds metadata"),
        (lambda copy, slot: copy.mirror_nodes.reverse(), "holds metadata"),
        (lambda copy, slot: setattr(copy, "master_position", -7),
         "holds metadata"),
        (lambda copy, slot: setattr(slot, "mirror_id", slot.mirror_id + 1),
         "mirror id"),
    ], ids=["replica_position", "mirror_order", "master_position",
            "mirror_id"])
    def test_catches_a_stale_mirror_copy(self, graph, corrupt, match):
        """Every mirror holds the master's metadata and sits at its own
        index: one corrupted copy, on one mirror, fails the check."""
        from repro.api import make_engine
        engine = make_engine(graph, "pagerank",
                             **small_kwargs(ft_level=2))
        engine.run(max_iterations=1)
        checker = InvariantChecker()
        checker.check_all(engine)
        master = next(slot for node in engine._alive()
                      for slot in engine.local_graphs[node].iter_masters()
                      if len(slot.meta.mirror_nodes) == 2)
        mirror = engine.local_graphs[
            master.meta.mirror_nodes[1]].slot_of(master.gid)
        corrupt(mirror.meta, mirror)
        with pytest.raises(InvariantViolation, match=match):
            checker.check_all(engine)

    def test_catches_index_corruption(self, graph):
        from repro.api import make_engine
        engine = make_engine(graph, "pagerank", **small_kwargs())
        checker = InvariantChecker()
        engine.run(max_iterations=1)
        lg = engine.local_graphs[engine._alive()[0]]
        gid = next(iter(lg.index_of))
        lg.index_of[gid] = (lg.index_of[gid] + 1) % len(lg.slots)
        with pytest.raises(InvariantViolation):
            checker.check_all(engine)


class TestOracle:
    def test_values_close(self):
        assert values_close(1.0, 1.0 + 1e-12)
        assert not values_close(1.0, 1.1)
        assert values_close((1.0, 2.0), (1.0, 2.0))
        assert not values_close((1.0,), (1.0, 2.0))
        assert values_close("a", "a")
        assert not values_close("a", 1.0)

    def test_report_summary_carries_repro_command(self, graph):
        sched = FailureSchedule(seed=77).crash(1, phase="gather")
        report = run_differential(
            graph, "pagerank", sched,
            command="pytest --chaos-seed 77 -k case", **small_kwargs())
        assert report.matches
        assert "--chaos-seed 77" in report.summary()
        assert "seed=77" in report.summary()

"""Observability subsystem: tracer spans, metrics registry, exports.

The load-bearing property is the timeline contract (DESIGN.md §8): the
top-level ``superstep``/``recovery`` spans tile the simulated timeline,
so their durations sum to ``RunResult.total_sim_time_s`` — failure-free
runs, rolled-back retries and checkpoint replays included.
"""

from __future__ import annotations

import json

import pytest

from repro.api import make_engine
from repro.chaos.controller import ChaosController
from repro.chaos.schedule import FailureSchedule
from repro.errors import UnrecoverableFailureError
from repro.graph import generators
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(150, alpha=2.0, seed=31, avg_degree=5.0)


def traced_run(graph, **kwargs):
    tracer = Tracer()
    defaults = dict(num_nodes=4, max_iterations=5)
    defaults.update(kwargs)
    failures = defaults.pop("failures", ())
    engine = make_engine(graph, defaults.pop("algorithm", "pagerank"),
                         tracer=tracer, **defaults)
    for failure in failures:
        engine.schedule_failure(*failure)
    return engine, engine.run(), tracer


def assert_tiles(tracer, result):
    top = tracer.top_level_spans()
    assert top, "no top-level spans recorded"
    total = sum(sp["dur_sim_s"] for sp in top)
    assert total == pytest.approx(result.total_sim_time_s, rel=1e-6)


class TestTimelineContract:
    def test_failure_free_spans_tile_sim_time(self, graph):
        _, result, tracer = traced_run(graph)
        assert_tiles(tracer, result)
        supersteps = tracer.spans("superstep")
        assert len(supersteps) == result.num_iterations
        assert [sp["iteration"] for sp in supersteps] == \
            list(range(result.num_iterations))

    def test_rollback_retry_spans_tile_sim_time(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             max_iterations=6, tracer=(tracer := Tracer()))
        engine.schedule_failure(3, [1])
        result = engine.run()
        assert result.recoveries
        assert_tiles(tracer, result)
        rolled = [sp for sp in tracer.spans("superstep")
                  if sp.get("rolled_back")]
        assert len(rolled) == 1 and rolled[0]["failed_nodes"] == [1]
        # The retried iteration appears again as a committed span.
        retried = [sp for sp in tracer.spans("superstep")
                   if sp["iteration"] == 3 and not sp.get("rolled_back")]
        assert len(retried) == 1
        protocol = tracer.spans("recovery.protocol")
        assert protocol and protocol[0]["strategy"] == "rebirth"
        assert protocol[0]["dur_sim_s"] == \
            pytest.approx(result.recoveries[0].total_s)

    def test_checkpoint_replay_spans_tile_sim_time(self, graph):
        _, result, tracer = traced_run(
            graph, ft_mode="checkpoint", checkpoint_interval=2,
            max_iterations=6, failures=[(3, [2])])
        assert result.recoveries
        assert_tiles(tracer, result)
        assert tracer.spans("barrier.checkpoint")
        assert tracer.spans("checkpoint.reload")

    def test_migration_recovery_phases_recorded(self, graph):
        _, result, tracer = traced_run(
            graph, recovery="migration", max_iterations=6,
            failures=[(2, [1], "after_commit")])
        assert result.recoveries
        assert_tiles(tracer, result)
        assert tracer.spans("migration.reload")
        assert tracer.spans("migration.reconstruct")

    def test_value_init_runs_inside_load_span(self, graph, monkeypatch):
        """Loading is one span: value initialisation and the first FT
        gauge publication happen while ``load`` is still open, so a
        trace's top-level spans account for engine construction."""
        from repro.engine.engine import Engine
        from repro.ft import ladder

        tracer = Tracer()
        open_spans = {}
        for owner, name in ((Engine, "_init_values"),
                            (ladder, "update_ft_gauges")):
            original = getattr(owner, name)

            def spy(engine, _name=name, _original=original):
                open_spans.setdefault(
                    _name, [sp.name for sp in tracer._stack])
                return _original(engine)

            monkeypatch.setattr(owner, name, spy)
        make_engine(graph, "pagerank", num_nodes=4, tracer=tracer)
        assert open_spans == {"_init_values": ["load"],
                              "update_ft_gauges": ["load"]}
        assert tracer.open_depth == 0

    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    def test_construct_children_tile_their_parent(self, partition):
        """``load.construct`` = array work + slot stamping, nothing in
        between: what lazy slots would save is in every trace."""
        big = generators.power_law(1500, alpha=2.0, seed=31, avg_degree=8.0)
        tracer = Tracer()
        engine = make_engine(big, "pagerank", num_nodes=8,
                             partition=partition, tracer=tracer)
        (parent,) = tracer.spans("load.construct")
        (columns,) = tracer.spans("load.construct.columns")
        (slots,) = tracer.spans("load.construct.slots")
        assert columns["parent"] == slots["parent"] == "load.construct"
        assert (columns["vertices"], columns["edges"]) == (
            big.num_vertices, big.num_edges)
        assert slots["slots"] == sum(
            len(lg.slots) for lg in engine.local_graphs.values())
        assert columns["dur_wall_s"] + slots["dur_wall_s"] == pytest.approx(
            parent["dur_wall_s"], rel=0.05)
        assert columns["dur_sim_s"] == slots["dur_sim_s"] == 0.0

    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    def test_replicate_children_tile_their_parent(self, partition):
        """``load.replicate`` = computation replicas + FT placement +
        mirror election + validation, each annotated with the vertices
        it had work for."""
        big = generators.power_law(1500, alpha=2.0, seed=31, avg_degree=8.0)
        tracer = Tracer()
        engine = make_engine(big, "pagerank", num_nodes=8, ft_level=2,
                             partition=partition, tracer=tracer)
        (parent,) = tracer.spans("load.replicate")
        children = [s for s in tracer.spans() if s["parent"] == parent["name"]]
        assert [s["name"] for s in children] == [
            f"load.replicate.{step}"
            for step in ("replicas", "place", "elect", "validate")]
        plan = engine.plan
        place, elect = children[1], children[2]
        assert place["deficient"] == int(
            (plan.ft_nodes.ptr[1:] > plan.ft_nodes.ptr[:-1]).sum()) > 0
        assert elect["contested"] == int(
            (plan.replica_nodes.lengths > 2).sum()) > 0
        covered = sum(s["dur_wall_s"] for s in children)
        assert 0.8 * parent["dur_wall_s"] <= covered <= parent["dur_wall_s"]
        assert all(s["dur_sim_s"] == 0.0 for s in children)

    def test_spans_never_leak(self, graph):
        _, _, tracer = traced_run(graph, failures=[(2, [1])],
                                  max_iterations=5)
        assert tracer.open_depth == 0

    def test_spans_closed_on_unrecoverable_error(self, graph):
        tracer = Tracer()
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             ft_mode="none", max_iterations=5,
                             tracer=tracer)
        engine.schedule_failure(2, [1])
        with pytest.raises(UnrecoverableFailureError):
            engine.run()
        assert tracer.open_depth == 0
        errored = [sp for sp in tracer.spans() if "error" in sp]
        assert errored


class TestMetricsAgainstLegacyStats:
    def test_counters_match_traffic_totals(self, graph):
        engine, result, _ = traced_run(graph)
        totals = engine.cluster.network.totals
        m = engine.metrics
        assert m.value("net.sent_msgs") == totals.total_msgs
        assert m.value("net.sent_bytes") == totals.total_bytes
        for kind, count in totals.msgs_by_kind.items():
            assert m.value(f"net.msgs.{kind.value}") == count
        for kind, nbytes in totals.bytes_by_kind.items():
            assert m.value(f"net.bytes.{kind.value}") == nbytes

    def test_snapshot_deltas_match_iteration_stats(self, graph):
        engine, result, _ = traced_run(graph)
        snaps = engine.metrics.snapshots
        assert len(snaps) == len(result.iteration_stats)
        prev = {"counters": {}, "gauges": {}}
        for snap, stat in zip(snaps, result.iteration_stats):
            assert snap["labels"]["iteration"] == stat.iteration
            assert snap["labels"]["sim_clock_s"] == \
                pytest.approx(stat.sim_clock_s)
            assert MetricsRegistry.delta(prev, snap, "net.sent_msgs") == \
                stat.messages
            assert MetricsRegistry.delta(prev, snap, "net.sent_bytes") == \
                stat.bytes
            assert snap["gauges"]["engine.active_masters"] == \
                stat.active_masters
            prev = snap
        assert engine.metrics.value("engine.supersteps") == \
            len(result.iteration_stats)

    def test_recovery_counters(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             max_iterations=6)
        engine.schedule_failure(2, [1])
        result = engine.run()
        m = engine.metrics
        assert m.value("recovery.count") == len(result.recoveries) == 1
        assert m.value("recovery.by_strategy.rebirth") == 1
        assert m.value("recovery.failed_nodes") == 1
        assert m.value("recovery.sim_s") == \
            pytest.approx(result.recoveries[0].total_s)


class TestDisabledTracer:
    def test_disabled_tracing_changes_nothing(self, graph):
        _, traced, tracer = traced_run(graph, failures=[(2, [1])],
                                       max_iterations=6)
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             max_iterations=6)
        engine.schedule_failure(2, [1])
        plain = engine.run()
        assert traced.total_sim_time_s == plain.total_sim_time_s
        assert traced.total_messages == plain.total_messages
        assert traced.values == plain.values
        assert tracer.events  # the traced run actually recorded

    def test_null_tracer_records_nothing(self, graph):
        assert NULL_TRACER.enabled is False
        _, result, _ = traced_run(graph)  # exercises engine spans
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             max_iterations=3)
        engine.run()
        assert engine.tracer is NULL_TRACER
        assert NULL_TRACER.events == []
        assert NULL_TRACER.open_depth == 0


class TestExports:
    def test_jsonl_round_trip(self, graph, tmp_path):
        _, result, tracer = traced_run(graph, failures=[(2, [1])],
                                       max_iterations=5)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert len(events) == len(tracer.events)
        spans = [e for e in events if e["type"] == "span"]
        # Export order is sim-start order, parents before children.
        starts = [e["t_sim_s"] for e in events]
        assert starts == sorted(starts)
        top = [e for e in spans if e["depth"] == 0]
        assert sum(e["dur_sim_s"] for e in top) == \
            pytest.approx(result.total_sim_time_s, rel=1e-6)

    def test_chrome_trace_round_trip(self, graph, tmp_path):
        _, _, tracer = traced_run(graph)
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(tracer.spans())
        for e in complete:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert {"pid", "tid", "name", "cat"} <= set(e)
        assert any(e["ph"] == "M" for e in events)  # metadata present

    def test_chaos_injections_become_instants(self, graph):
        tracer = Tracer()
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             max_iterations=6, tracer=tracer)
        schedule = FailureSchedule(seed=11).crash(2, target="random")
        ChaosController(schedule).attach(engine)
        engine.run()
        crashes = tracer.instants(cat="chaos")
        assert crashes and crashes[0]["name"] == "chaos.crash"
        assert crashes[0]["targets"]
        assert engine.metrics.value("chaos.crash_events") == 1


class TestRegistryUnit:
    def test_counters_monotonic(self):
        m = MetricsRegistry()
        m.inc("a", 2)
        m.inc("a")
        assert m.value("a") == 3
        with pytest.raises(ValueError):
            m.inc("a", -1)

    def test_prefix_queries_and_gauges(self):
        m = MetricsRegistry()
        m.inc("net.msgs.sync", 4)
        m.inc("net.msgs.gather")
        m.inc("engine.supersteps")
        assert m.counters("net.") == {"net.msgs.sync": 4,
                                      "net.msgs.gather": 1}
        m.set_gauge("engine.iteration", 7)
        assert m.gauge("engine.iteration") == 7
        assert m.gauge("missing", "dflt") == "dflt"

    def test_absorb_sums_counters(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x", 1)
        b.inc("x", 2)
        b.set_gauge("g", "theirs")
        a.absorb(b)
        assert a.value("x") == 3
        assert a.gauge("g") == "theirs"

    def test_snapshot_isolation(self):
        m = MetricsRegistry()
        m.inc("x")
        snap = m.snapshot(iteration=0)
        m.inc("x", 5)
        assert snap["counters"]["x"] == 1
        assert m.value("x") == 6
        assert MetricsRegistry.delta(snap, m.snapshot(iteration=1), "x") == 5

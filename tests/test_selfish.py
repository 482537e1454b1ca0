"""Selfish-vertex optimisation tests (Section 4.4, invariant P5)."""

from __future__ import annotations

import pytest

from repro.api import make_engine, run_job
from repro.chaos import FailureSchedule, run_differential
from repro.engine.local_graph import LocalGraph
from repro.ft import _recovery_common as common
from repro.graph import generators


@pytest.fixture(scope="module")
def graph():
    # A large selfish population makes the message savings visible.
    return generators.power_law(300, alpha=2.0, seed=91, avg_degree=5.0,
                                selfish_frac=0.25)


class TestMessageSavings:
    def test_fewer_messages_with_optimization(self, graph):
        on = run_job(graph, "pagerank", num_nodes=6, max_iterations=4,
                     selfish_optimization=True)
        off = run_job(graph, "pagerank", num_nodes=6, max_iterations=4,
                      selfish_optimization=False)
        assert on.total_messages < off.total_messages

    def test_values_identical(self, graph):
        """P5: the optimisation never changes results."""
        on = run_job(graph, "pagerank", num_nodes=6, max_iterations=4,
                     selfish_optimization=True)
        off = run_job(graph, "pagerank", num_nodes=6, max_iterations=4,
                      selfish_optimization=False)
        for v in range(graph.num_vertices):
            assert on.values[v] == off.values[v]

    def test_not_applied_to_history_dependent_programs(self):
        """SSSP is not history-free: selfish vertices sync normally and
        the message counts match."""
        g = generators.power_law(200, alpha=2.0, seed=5, avg_degree=4.0,
                                 selfish_frac=0.2)
        on = run_job(g, "sssp", num_nodes=4, max_iterations=30,
                     selfish_optimization=True,
                     algorithm_kwargs={"source": 0})
        off = run_job(g, "sssp", num_nodes=4, max_iterations=30,
                      selfish_optimization=False,
                      algorithm_kwargs={"source": 0})
        assert on.total_messages == off.total_messages


class TestRecoveryWithSelfishOptimization:
    @pytest.mark.parametrize("recovery", ["rebirth", "migration"])
    def test_selfish_values_recomputed(self, graph, recovery):
        """A recovered selfish master's value is recomputed from
        neighbors, ending exactly equal to the failure-free run."""
        base = run_job(graph, "pagerank", num_nodes=6, max_iterations=6)
        result = run_job(graph, "pagerank", num_nodes=6, max_iterations=6,
                         recovery=recovery, failures=[(3, [1])])
        for v in range(graph.num_vertices):
            assert result.values[v] == pytest.approx(base.values[v],
                                                     rel=1e-12)

    def test_vertex_cut_selfish_recovery(self, graph):
        base = run_job(graph, "pagerank", num_nodes=6, max_iterations=6,
                       partition="hybrid_cut")
        result = run_job(graph, "pagerank", num_nodes=6, max_iterations=6,
                         partition="hybrid_cut", recovery="migration",
                         failures=[(3, [1])])
        for v in range(graph.num_vertices):
            assert result.values[v] == pytest.approx(base.values[v],
                                                     rel=1e-9)

    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut",
                                           "random_vertex_cut"])
    def test_the_kernel_recompute_equals_the_per_edge_loop(
            self, partition, monkeypatch):
        """On the array path a Rebirth recomputes the selfish masters
        with the kernel's fold, reading no ``LocalGraph.view``; the
        values, activity and edge count it leaves equal those the
        scalar run's per-edge loop leaves, bit for bit.  The denser
        graph spreads a selfish master's in-edges over three or more
        nodes under the random vertex-cut, so the order its partials
        fold in shows in the sums."""
        graph = generators.power_law(300, alpha=2.0, seed=91,
                                     avg_degree=12.0, selfish_frac=0.25)
        real, views, seen = common.recompute_selfish_masters, [0], []
        real_view = LocalGraph.view

        def view(self, position):
            views[0] += 1
            return real_view(self, position)

        def recompute(engine, gids):
            before = views[0]
            edges = real(engine, gids)
            rows = []
            for gid in sorted(gids):
                lg = engine.local_graphs[int(engine.master_node_of[gid])]
                pos = int(lg.topology().find([gid])[0])
                rows.append((gid, lg.values.item(pos), lg.active.item(pos)))
            seen.append((views[0] - before, edges, rows))
            return edges

        monkeypatch.setattr(LocalGraph, "view", view)
        monkeypatch.setattr(common, "recompute_selfish_masters", recompute)
        values = []
        for vectorized in (True, False):
            engine = make_engine(graph, "pagerank", num_nodes=6,
                                 partition=partition, num_standby=1,
                                 max_iterations=6, vectorized=vectorized)
            engine.schedule_failure(3, [1], "compute")
            result = engine.run()
            assert [r.strategy for r in result.recoveries] == ["rebirth"]
            values.append(result.values)
        (kernel_views, *kernel), (loop_views, *loop) = seen
        assert kernel[1] and kernel == loop
        assert kernel_views == 0 < loop_views
        assert values[0] == values[1]

    def test_selfish_flagged_in_slots(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=6)
        selfish = set((graph.out_degrees() == 0).nonzero()[0].tolist())
        for lg in engine.local_graphs.values():
            for slot in lg.iter_slots():
                assert slot.selfish == (slot.gid in selfish)

    def test_selfish_mirrors_are_ft_only(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=6)
        for lg in engine.local_graphs.values():
            for slot in lg.iter_mirrors():
                if slot.selfish:
                    assert slot.ft_only


class TestSelfishUnderChaos:
    """Chaos-schedule-driven crashes over a selfish-heavy graph.

    The selfish optimisation skips syncing selfish masters' values to
    their FT-only mirrors; recovery must recompute them from neighbor
    state instead.  The differential oracle checks the recomputed
    values land exactly on the failure-free run (P5 composed with P4).
    """

    def _kwargs(self, recovery, total_crashes, **over):
        kw = dict(num_nodes=6, ft_mode="replication", recovery=recovery,
                  max_iterations=6, ft_level=1,
                  num_standby=0 if recovery == "migration"
                  else total_crashes,
                  selfish_optimization=True)
        kw.update(over)
        return kw

    @pytest.mark.parametrize("recovery", ["rebirth", "migration"])
    @pytest.mark.parametrize("phase", ["gather", "sync", "after_commit"])
    def test_phase_crashes(self, graph, recovery, phase):
        schedule = (FailureSchedule(seed=13)
                    .crash(2, phase=phase, target="most-loaded"))
        report = run_differential(
            graph, "pagerank", schedule,
            **self._kwargs(recovery, schedule.total_crashes))
        assert report.recoveries == 1
        assert report.matches, report.summary()

    @pytest.mark.parametrize("recovery", ["rebirth", "migration"])
    def test_repeated_crashes(self, graph, recovery):
        schedule = (FailureSchedule(seed=31)
                    .crash(1, phase="sync", target="mirror-heaviest")
                    .crash(3, phase="barrier", target="most-loaded"))
        report = run_differential(
            graph, "pagerank", schedule,
            **self._kwargs(recovery, schedule.total_crashes))
        assert report.recoveries == 2
        assert report.matches, report.summary()

    def test_vertex_cut_chaos(self, graph):
        schedule = (FailureSchedule(seed=47)
                    .crash(2, phase="superstep_start", target="random"))
        report = run_differential(
            graph, "pagerank", schedule,
            **self._kwargs("migration", schedule.total_crashes,
                           partition="hybrid_cut"))
        assert report.recoveries == 1
        assert report.matches, report.summary()

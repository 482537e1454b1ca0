"""Lifetime of the SoA images (DESIGN.md §11): the write-site rule.

The image is born at load, with the slots.  Whoever writes a node's
structure — slots, edge lists or metadata — outside the barrier commit
invalidates *that node's* image, which is then read back out of the
slots; everyone else keeps theirs — through rollback, recovery and
repair — and values and flags, which live once in the graph's columns,
invalidate nothing.  The tests here pin the rule from both sides:
images that must survive do (exact build counts, FT-level reads that
build and stamp nothing, value and flag writes), and images that must
go do (the SoA-coherence
check of :class:`InvariantChecker`, which the chaos matrix, the
membership acceptance schedules and the ladder tests also run).
"""

from __future__ import annotations

import weakref

import pytest

from repro.api import make_engine, run_job
from repro.chaos import ChaosController, FailureSchedule
from repro.chaos.invariants import InvariantChecker, InvariantViolation
from repro.engine.soa import NodeTopology
from repro.ft import _recovery_common as common
from repro.ft import ladder
from repro.graph import generators
from repro.membership.rebalance import move_master
from repro.obs import Tracer
from tests.test_edge_mutation import DecayingDegree

PARTS = ["hash_edge_cut", "hybrid_cut"]


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(400, alpha=2.0, seed=3, avg_degree=6.0)


def _ran(graph, supersteps=3, **kwargs):
    """A vectorized engine that committed ``supersteps`` supersteps."""
    kwargs.setdefault("num_nodes", 4)
    kwargs.setdefault("ft_level", 1)
    engine = make_engine(graph, "pagerank", max_iterations=8, **kwargs)
    engine.run(max_iterations=supersteps)
    assert engine._vec is not None
    return engine


def _with_kills(graph, failures, **kwargs):
    """A vectorized engine with ``failures`` scheduled, not yet run."""
    engine = make_engine(graph, "pagerank", ft_level=1, **kwargs)
    for failure in failures:
        engine.schedule_failure(*failure)
    return engine


class TestSoaCoherenceCheck:
    """The invariant itself: silent on a healthy engine, loud on a
    structural write that skipped its invalidation and on a slot that
    is not a view of its own position."""

    @pytest.mark.parametrize("partition", PARTS)
    def test_soa_coherence_holds_on_a_healthy_engine(self, graph,
                                                     partition):
        engine = _ran(graph, partition=partition)
        InvariantChecker().check_all(engine)
        assert all(lg.cached_topology is not None
                   for lg in engine.local_graphs.values())

    def test_soa_coherence_catches_a_stale_topology(self, graph):
        engine = _ran(graph)
        lg = engine.local_graphs[0]
        master = next(s for s in lg.iter_masters()
                      if s.meta.sync_targets())
        # Demote the vertex's mirrors to plain replicas the way a repair
        # round rewrites seats, but skip the invalidation.  The copies
        # keep their role, so every older check stays silent.
        master.meta.mirror_nodes = []
        master.meta.invalidate_replica_cache()
        with pytest.raises(InvariantViolation, match="sync_plan"):
            InvariantChecker(check_values=False)._check_soa_coherence(
                engine, engine._alive(), "manual")
        lg.invalidate_soa()
        InvariantChecker(check_values=False)._check_soa_coherence(
            engine, engine._alive(), "manual")

    def test_soa_coherence_catches_an_unbound_slot(self, graph):
        """A stamped slot holding its own fields, or another position's,
        is a second copy: the binding check names it."""
        engine = _ran(graph)
        lg = engine.local_graphs[1]
        check = InvariantChecker().check_all
        slot = lg.slots[3]
        slot.detach()
        with pytest.raises(InvariantViolation, match="position 3 is not"):
            check(engine)
        slot.bind(weakref.ref(lg), 4)
        with pytest.raises(InvariantViolation, match="position 3 is not"):
            check(engine)
        slot.bind(weakref.ref(lg), 3)
        check(engine)

    def test_soa_coherence_catches_a_written_tombstone(self, graph):
        engine = _ran(graph, num_nodes=5)
        lg = engine.local_graphs[1]
        gid = next(lg.iter_mirrors()).gid
        pos = lg.position_of(gid)
        removed = lg.remove_slot(gid)
        check = InvariantChecker()._check_binding
        check(engine, engine._alive(), "manual")
        # A removed slot left bound writes through the tombstone.
        removed.bind(weakref.ref(lg), pos)
        removed.value = 2.5
        with pytest.raises(InvariantViolation, match=f"tombstone {pos}"):
            check(engine, engine._alive(), "manual")

    def test_sync_plan_key_order_is_part_of_the_image(self, graph):
        """``sync_plan`` key order is message send order."""
        engine = _ran(graph)
        lg = engine.local_graphs[0]
        topo = lg.cached_topology
        topo.sync_plan = dict(reversed(list(topo.sync_plan.items())))
        with pytest.raises(InvariantViolation, match="sync_plan"):
            InvariantChecker()._check_soa_coherence(
                engine, engine._alive(), "manual")


def _imaged(engine) -> set[int]:
    return {node for node, lg in engine.local_graphs.items()
            if lg.cached_topology is not None}


class TestWriteSites:
    """Each shared recovery helper drops the image of exactly the nodes
    whose structure it writes on, and what is left is coherent; a value
    or flag write drops nothing and rebuilds no column state."""

    def _check(self, engine, dropped):
        assert _imaged(engine) == set(engine.local_graphs) - dropped
        checker = InvariantChecker()
        checker._check_binding(engine, engine._alive(), "manual")
        checker._check_soa_coherence(engine, engine._alive(), "manual")

    def test_replayed_activation_that_flips_a_flag(self):
        g = generators.power_law(120, alpha=2.0, seed=7, avg_degree=5.0)
        engine = make_engine(g, "sssp", num_nodes=4, ft_level=1,
                             max_iterations=30,
                             algorithm_kwargs={"source": 0})
        engine.run(max_iterations=2)
        node, source, target = next(
            (node, slot, lg.slots[pos])
            for node, lg in engine.local_graphs.items()
            for slot in lg.iter_slots() for pos in slot.out_edges
            if lg.slots[pos].is_master and not lg.slots[pos].active)
        # Stage a lost activation the way a recovered copy carries it:
        # the slot writes the committed columns the replay reads.
        st = engine._vec.valid_state(node)
        builds = engine._vec.state_builds
        source.last_activates = True
        source.last_update_iter = engine.iteration - 1
        at = engine.local_graphs[node].position_of(source.gid)
        assert st.last_activates[at] and st.last_update[at] == \
            engine.iteration - 1
        assert common.replay_activations(engine, [node], None) >= 1
        assert target.active
        assert st.active[engine.local_graphs[node].position_of(target.gid)]
        self._check(engine, set())
        assert engine._vec.valid_state(node) is st
        assert engine._vec.state_builds == builds
        # Replaying it again flips nothing, so writes nothing.
        common.replay_activations(engine, [node], None)
        self._check(engine, set())

    def test_place_replicas_reaches_the_masters(self, graph):
        engine = _ran(graph, num_nodes=6)
        dst = 0
        gids = [gid for gid in range(graph.num_vertices)
                if gid not in engine.local_graphs[dst].index_of][:8]
        masters = {engine.master_node_of[gid] for gid in gids}
        assert len(masters) > 1
        common.place_replicas(engine, dst, gids, False)
        self._check(engine, masters | {dst})

    def test_move_master_drops_its_write_set(self, graph):
        """The source, the destination and every copy's node lose their
        image when the move ends, the new replicas' masters with their
        placement, so the next move in the same pump reads no stale
        one: every image left is coherent."""
        engine = _ran(graph, num_nodes=5)
        for gid in range(0, graph.num_vertices, 7):
            src = engine.master_node_of[gid]
            dst = (src + 1) % 5
            move_master(engine, gid, dst)
            meta = engine.local_graphs[dst].slot_of(gid).meta
            assert not _imaged(engine) & {src, dst,
                                          *meta.replica_positions}
            InvariantChecker()._check_soa_coherence(engine, engine._alive(),
                                                    "manual")
            for lg in engine.local_graphs.values():
                lg.topology()

    def test_recomputed_selfish_master(self):
        g = generators.power_law(200, alpha=2.0, seed=5, avg_degree=5.0,
                                 selfish_frac=0.2)
        engine = _ran(g)
        assert engine.selfish_opt_active
        slot = next(s for lg in engine.local_graphs.values()
                    for s in lg.iter_masters() if s.selfish and s.in_edges)
        node = engine.master_node_of[slot.gid]
        st = engine._vec.valid_state(node)
        builds = engine._vec.state_builds
        common.recompute_selfish_masters(engine, [slot.gid])
        self._check(engine, set())
        assert engine._vec.valid_state(node) is st
        assert engine._vec.state_builds == builds
        assert st.values is engine.local_graphs[node].values

    def test_flap_resync_rewrites_selfish_replicas(self):
        """The delta resync after a flap is value-neutral except for
        selfish masters, whose normal sync is skipped: their replicas on
        the flapped node take a new value — a column write, so every
        image stays and no column state is rebuilt."""
        g = generators.power_law(300, alpha=2.0, seed=7, avg_degree=4.0,
                                 selfish_frac=0.2)
        kw = dict(num_nodes=5, ft_level=1, max_iterations=8)
        engine = make_engine(g, "pagerank", membership=[(2, "flap", 1)],
                             **kw)
        assert engine.selfish_opt_active
        checker = InvariantChecker()
        engine.attach_chaos(checker)
        result = engine.run()
        assert engine.metrics.value("membership.flap_resync_records") > 0
        assert checker.checks == 8
        assert engine._vec.state_builds == 5  # first touches only
        assert result.values == run_job(g, "pagerank", **kw).values


@pytest.fixture
def builds(monkeypatch):
    """Node ids ``NodeTopology.build`` was called for."""
    calls: list[int] = []
    real = NodeTopology.build.__func__

    def spy(cls, lg):
        calls.append(lg.node_id)
        return real(cls, lg)

    monkeypatch.setattr(NodeTopology, "build", classmethod(spy))
    return calls


def _stamped(engine) -> int:
    return sum(lg.materialized for lg in engine.local_graphs.values())


class TestImageBornAtLoad:
    """The loader hands every node its topology, which holds the FT
    levels too; only a node something wrote on ever reads it back out of
    its slots."""

    def test_topology_builds_none_on_a_failure_free_run(self, graph,
                                                        builds):
        """8 read-backs at first touch before the image was born at
        load; the columns are still built on first touch."""
        engine = make_engine(graph, "pagerank", num_nodes=8, ft_level=1,
                             max_iterations=8)
        engine.run()
        assert builds == []
        assert engine._vec.state_builds == 8

    def test_topology_builds_none_on_the_kill_workload_spec(self, graph,
                                                            builds):
        """The shrunk ``pr_kill_sim`` spec: the two reborn nodes are born
        with their image too, built from the columns they received."""
        engine = _with_kills(graph, [(6, [1], "compute"),
                                     (13, [2], "after_commit")],
                             num_nodes=8, num_standby=2, max_iterations=20)
        result = engine.run()
        assert len(result.recoveries) == 2
        assert builds == []
        assert engine._vec.state_builds == 10

    @pytest.mark.parametrize("partition", PARTS)
    def test_topology_builds_none_in_a_fresh_array_worker(
            self, graph, builds, partition):
        """A forked mp worker inherits the parent's image: building its
        state (what ``_NodeWorker.__init__`` does after the fork) reads
        no topology back, for any rank."""
        from repro.exec.mp import _NodeWorker
        engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                             partition=partition)
        for rank in range(4):
            worker = _NodeWorker(rank, engine)
            assert worker.st.topo is engine.local_graphs[rank].cached_topology
        assert builds == []

    def test_topology_builds_none_after_a_parent_image_rebirth(
            self, graph, builds):
        """mp recovers on the parent image and re-forks every worker:
        the survivors Rebirth and repair did not write on still hold the
        image they were born with, and the reborn rank is born with its
        own, so no rank reads one back."""
        from repro.exec.mp import _NodeWorker
        engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                             num_standby=1)
        born = {n: lg.cached_topology
                for n, lg in engine.local_graphs.items()}
        assert None not in born.values()
        engine.cluster.crash(2)
        ladder.recover(engine, (2,))
        assert engine.recoveries[-1].strategy == "rebirth"
        for node, lg in engine.local_graphs.items():
            if node != 2:
                assert lg.cached_topology is born[node]
        reborn = engine.local_graphs[2].cached_topology
        assert reborn is not None
        for rank in range(4):
            assert _NodeWorker(rank, engine).st.topo is (
                reborn if rank == 2 else born[rank])
        assert builds == []
        InvariantChecker()._check_soa_coherence(engine, engine._alive(),
                                                "manual")

    def test_gauges_at_load_scan_no_slot(self, graph, builds):
        """The gauges at load, and any FT read after, take each master's
        level off the image born at load: no read-back, no stamp."""
        engine = make_engine(graph, "pagerank", num_nodes=6, ft_level=2)
        assert engine.metrics.gauge("ft.level_current") == 2
        alive = engine._alive()
        assert common.min_ft_level(engine, 3) == 2
        assert common.masters_below(engine, alive, 3)[0] == list(
            range(graph.num_vertices))
        assert common.masters_below(engine, alive, 2)[0] == []
        assert builds == []
        assert _stamped(engine) == 0


class TestSurvivorsKeepTheirImage:
    def test_state_builds_one_kill_rebirth(self, graph):
        """8 first touches + the one reborn node."""
        engine = _with_kills(graph, [(3, [2])], num_nodes=8,
                             num_standby=1, max_iterations=8)
        engine.run()
        assert engine._vec.state_builds == 9
        assert engine.metrics.value("soa.state_builds") == 9

    def test_state_builds_on_the_kill_workload_spec(self, graph):
        """The ``pr_kill_sim`` spec, shrunk: 8 nodes, a compute-phase
        and an after-commit kill.  24 builds before the write-site
        rule (every node rebuilt after every recovery), 10 with it."""
        engine = _with_kills(graph, [(6, [1], "compute"),
                                     (13, [2], "after_commit")],
                             num_nodes=8, num_standby=2, max_iterations=20)
        result = engine.run()
        assert len(result.recoveries) == 2
        assert engine._vec.state_builds == 10
        clean = run_job(graph, "pagerank", num_nodes=8, ft_level=1,
                        max_iterations=20)
        assert result.values == clean.values

    def test_state_builds_failure_free_is_first_touch_only(self, graph):
        engine = _ran(graph, supersteps=6, num_nodes=5)
        assert engine._vec.state_builds == 5

    def test_no_census_rescan_of_a_surviving_image(self, graph, builds):
        """Repair and the gauges read the FT levels after a Rebirth off
        the survivors' images and the one the reborn node was born with,
        from the received columns: no read-back, no stamp."""
        engine = _ran(graph, num_nodes=6, num_standby=1)
        engine.cluster.crash(2)
        ladder.recover(engine, (2,))
        assert engine.recoveries[-1].strategy == "rebirth"
        assert engine.metrics.gauge("ft.level_current") == 1
        assert common.masters_below(engine, engine._alive(), 1) == (
            [], max(int(lg.cached_topology.is_master.sum())
                    for lg in engine.local_graphs.values()))
        assert builds == []
        assert _stamped(engine) == 0

    def test_ft_reads_build_no_image_on_an_edge_mutating_run(
            self, builds, monkeypatch):
        """An edge-mutating run (scalar) drops its images every
        superstep: the FT reads of its Migration, FT repair and gauges
        read the metadata columns instead of building one, so the run
        reads back only the recovery's own six images."""
        real = common.ft_levels
        during: list[int] = []

        def spy(lg):
            before = len(builds)
            levels = real(lg)
            during.append(len(builds) - before)
            return levels

        monkeypatch.setattr(common, "ft_levels", spy)
        small = generators.power_law(60, alpha=2.0, seed=23, avg_degree=4.0)
        engine = make_engine(small, DecayingDegree(), num_nodes=4,
                             recovery="migration", num_standby=0,
                             max_iterations=6, seed=11)
        engine.schedule_failure(2, 1)
        engine.run()
        assert engine.recoveries[-1].strategy == "migration"
        assert engine._vec is None
        assert during and set(during) == {0}
        assert len(builds) == 6

    def test_census_is_what_a_full_scan_finds(self, graph):
        engine = _ran(graph, num_nodes=6, ft_level=2, num_standby=0)
        engine.cluster.crash(4)
        ladder.recover(engine, (4,))  # Migration: promotions, pruning
        alive = engine._alive()
        for k in (1, 2, 3):
            want = sorted(s.gid for n in alive
                          for s in engine.local_graphs[n].iter_masters()
                          if s.meta.ft_level < k)
            widest = max(sum(1 for _ in engine.local_graphs[n]
                             .iter_masters()) for n in alive)
            assert common.masters_below(engine, alive, k) == (want,
                                                              widest)
            assert common.min_ft_level(engine, k) == min(
                [k] + [s.meta.ft_level for n in alive
                       for s in engine.local_graphs[n].iter_masters()])

    def test_rebuild_span_names_the_reborn_node(self, graph):
        tracer = Tracer()
        engine = _with_kills(graph, [(3, [2])], num_nodes=8,
                             num_standby=1, max_iterations=8, tracer=tracer)
        result = engine.run()
        (rebuild,) = tracer.spans("recovery.rebuild")
        assert rebuild["parent"] == "recovery"
        assert rebuild["nodes"] == [2]
        assert rebuild["dur_sim_s"] == 0.0
        # Tiling contract: the new span adds no simulated time.
        assert sum(s["dur_sim_s"] for s in tracer.top_level_spans()) \
            == pytest.approx(result.total_sim_time_s, rel=1e-12)


class TestMirrorOnlyRepair:
    def _drive(self, graph, vectorized):
        engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                             ft_level_max=2, max_iterations=6,
                             vectorized=vectorized)
        engine.run(max_iterations=3)
        batch = sorted(
            s.gid for lg in engine.local_graphs.values()
            for s in lg.iter_masters()
            if len(s.meta.replica_positions) >= 2
            and len(s.meta.mirror_nodes) == 1)[:20]
        assert len(batch) == 20
        engine.membership._policy_repair(batch, 2, engine._alive())
        # The round elected mirrors among existing replicas only.
        assert engine.metrics.value("ft.policy.repair_replicas") == 0
        assert all(len(engine.local_graphs[engine.master_node_of[g]]
                       .slot_of(g).meta.mirror_nodes) == 2 for g in batch)
        InvariantChecker().check_all(engine)
        result = engine.run()
        return result, engine.cluster.network.totals

    def test_mirror_only_repair_round_reaches_the_sync_plan(self, graph):
        """``restore_ft_level`` can elect mirrors without creating a
        copy (``created == 0``); the master's cached ``sync_plan`` must
        still turn those targets into ``MIRROR_SYNC`` ones, as the
        scalar path's ``sync_targets()`` does."""
        vec, vec_totals = self._drive(graph, vectorized=True)
        ref, ref_totals = self._drive(graph, vectorized=False)
        assert vec_totals.msgs_by_kind == ref_totals.msgs_by_kind
        assert vec_totals.bytes_by_kind == ref_totals.bytes_by_kind
        assert vec.values == ref.values


class TestRollbackKeepsTheCommit:
    @pytest.mark.parametrize("partition", PARTS)
    def test_compute_phase_kill_leaves_no_staged_value(self, graph,
                                                       partition):
        kw = dict(num_nodes=5, ft_level=1, partition=partition)
        clean = run_job(graph, "pagerank", max_iterations=8, **kw)
        engine = _ran(graph, num_standby=1, **kw)
        ChaosController(FailureSchedule(seed=1).crash(
            3, phase="sync", target=1)).attach(engine)
        failed = engine._run_superstep()
        assert failed == (1,)
        states = engine._vec._states
        assert any(st.pend_mask.any() for st in states.values())
        committed = {n: st.values.copy() for n, st in states.items()}
        engine._rollback()
        assert engine._vec._states is states and len(states) == 5
        for node, st in states.items():
            assert not st.pend_mask.any()
            assert not st.next_active.any()
            assert st.partials == []
            assert (st.values == committed[node]).all()
        ladder.recover(engine, failed)
        assert engine._vec.state_builds == 6
        result = engine.run()
        assert result.values == clean.values


class TestReadsNeverBuild:
    def test_read_between_invalidation_and_compute_builds_nothing(
            self, graph):
        engine = _ran(graph)
        lg = engine.local_graphs[2]
        gid = next(lg.iter_masters()).gid
        want = engine.committed_value_at(2, gid)
        builds = engine._vec.state_builds
        lg.invalidate_soa()
        assert engine._vec.valid_state(2) is None
        assert engine.committed_value_at(2, gid) == want \
            == lg.slot_of(gid).value
        assert lg.cached_topology is None
        assert engine._vec.state_builds == builds

"""Rebirth recovery tests: equivalence (P4), position stability (P7),
phase accounting."""

from __future__ import annotations

import pytest

from repro.api import make_engine, run_job
from repro.chaos.invariants import InvariantChecker
from repro.engine.soa import NodeTopology
from repro.engine.state import Role
from repro.ft import ladder
from repro.graph import generators
from tests.test_construction_equivalence import assert_same_image

PARTS = ["hash_edge_cut", "hybrid_cut"]


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(250, alpha=2.0, seed=51, avg_degree=5.0,
                                selfish_frac=0.1)


@pytest.fixture(scope="module")
def baseline(graph):
    result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6)
    return {v: result.values[v] for v in range(graph.num_vertices)}


class TestEquivalence:
    @pytest.mark.parametrize("partition", PARTS)
    @pytest.mark.parametrize("phase", ["compute", "after_commit"])
    def test_pagerank_equivalent(self, graph, baseline, partition, phase):
        result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                         partition=partition, recovery="rebirth",
                         failures=[(3, [2], phase)])
        assert len(result.recoveries) == 1
        for v in range(graph.num_vertices):
            assert result.values[v] == pytest.approx(baseline[v],
                                                     rel=1e-12)

    def test_edge_cut_bitwise_equal(self, graph, baseline):
        """Edge-cut Rebirth preserves gather order: exact equality."""
        result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                         recovery="rebirth", failures=[(3, [2])])
        for v in range(graph.num_vertices):
            assert result.values[v] == baseline[v]

    def test_failure_at_first_iteration(self, graph, baseline):
        result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                         recovery="rebirth", failures=[(0, [1])])
        for v in range(graph.num_vertices):
            assert result.values[v] == baseline[v]

    def test_sssp_equivalent(self):
        g = generators.chain(30, weighted=True, seed=2)
        clean = run_job(g, "sssp", num_nodes=4, max_iterations=60,
                        algorithm_kwargs={"source": 0})
        failed = run_job(g, "sssp", num_nodes=4, max_iterations=60,
                         recovery="rebirth", algorithm_kwargs={"source": 0},
                         failures=[(10, [1])])
        for v in range(30):
            assert failed.values[v] == clean.values[v]

    @pytest.mark.parametrize("phase", ["compute", "after_commit"])
    def test_vertex_cut_replays_remote_activations(self, phase):
        """A vertex-cut master is activated through edges on *other*
        nodes too; those signals died with it and only the survivors
        can re-send them.  SSSP's frontier makes a lost one visible: the
        reborn master never recomputes and stays unreachable."""
        g = generators.power_law(80, alpha=2.0, seed=7, avg_degree=5.0)
        options = dict(num_nodes=4, max_iterations=15,
                       partition="random_vertex_cut", recovery="rebirth",
                       algorithm_kwargs={"source": 0})
        clean = run_job(g, "sssp", **options)
        failed = run_job(g, "sssp", failures=[(3, [1], phase)], **options)
        assert len(failed.recoveries) == 1
        assert failed.values == clean.values

    def test_two_sequential_failures(self, graph, baseline):
        result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                         recovery="rebirth", num_standby=2,
                         failures=[(2, [1]), (4, [3])])
        assert len(result.recoveries) == 2
        for v in range(graph.num_vertices):
            assert result.values[v] == baseline[v]


KILL_PARTS = ["hash_edge_cut", "random_vertex_cut", "hybrid_cut"]
#: Slot fields a Rebirth restores as they were (``out_edges`` aside: its
#: order is not semantic — activation targets are a set).
STATIC = ("gid", "role", "out_degree", "in_degree", "in_edges", "meta",
          "master_node", "ft_only", "selfish", "mirror_id", "full_edges")
#: The committed dynamic state.  Under the selfish optimisation a
#: selfish vertex's first three are never synced (Section 4.4): its
#: copies hold stale ones, the reborn copies take the master's, and a
#: reborn selfish master recomputes them from its neighbours.
DYNAMIC = ("value", "last_activates", "last_update_iter", "active",
           "mirror_self_active", "replicas_known_active")


@pytest.fixture(scope="module")
def kill_graph():
    return generators.power_law(2000, alpha=2.0, seed=3, selfish_frac=0.1)


def _rebirth_of(engine, node, supersteps):
    """Run to ``supersteps``, crash ``node`` and recover it by hand:
    ``(graph before the crash, reborn graph)``."""
    engine.run(max_iterations=supersteps)
    engine._vec.flush()
    before = engine.local_graphs[node]
    engine.cluster.crash(node)
    ladder.recover(engine, (node,))
    assert engine.recoveries[-1].strategy == "rebirth"
    return before, engine.local_graphs[node]


def _assert_reborn_as_before(engine, before, after):
    """Invariant P7: the reborn array matches the crashed one slot by
    slot, its image and FT census are what its slots say, and the whole
    engine is coherent."""
    selfish_opt = engine.selfish_opt_active
    assert len(after.slots) == len(before.slots)
    assert list(after.index_of.items()) == list(before.index_of.items())
    for old, new in zip(before.slots, after.slots):
        if old is None:
            assert new is None
            continue
        for name in STATIC:
            assert getattr(new, name) == getattr(old, name), (old.gid, name)
        if old.meta is not None:
            assert (list(new.meta.replica_positions.items())
                    == list(old.meta.replica_positions.items()))
        assert sorted(new.out_edges) == sorted(old.out_edges), old.gid
        for name in DYNAMIC[3:] if selfish_opt and old.selfish else DYNAMIC:
            assert getattr(new, name) == getattr(old, name), (old.gid, name)
    assert_same_image(after.cached_topology, NodeTopology.build(after))
    InvariantChecker().check_all(engine)
    born = after.ft_census()
    assert born == before.ft_census()
    after.invalidate_soa()
    assert after.ft_census() == born
    assert list(after.ft_census()[1]) == list(born[1])


class TestPositionStability:
    def test_rebuilt_array_identical(self, kill_graph):
        for partition in KILL_PARTS:
            for ft_level in (1, 2):
                engine = make_engine(kill_graph, "pagerank", num_nodes=6,
                                     ft_level=ft_level, partition=partition,
                                     max_iterations=8)
                before, after = _rebirth_of(engine, 2, 3)
                _assert_reborn_as_before(engine, before, after)

    @pytest.mark.parametrize("partition", KILL_PARTS)
    def test_rebuilt_array_identical_when_killed_twice(self, kill_graph,
                                                       partition):
        """The second Rebirth rebuilds from a node that was itself
        reborn."""
        engine = make_engine(kill_graph, "pagerank", num_nodes=6,
                             partition=partition, num_standby=2,
                             max_iterations=8)
        _rebirth_of(engine, 2, 3)
        before, after = _rebirth_of(engine, 2, 5)
        _assert_reborn_as_before(engine, before, after)

    @pytest.mark.parametrize("ft_level", [1, 2])
    @pytest.mark.parametrize("partition", KILL_PARTS)
    def test_ft_replica_counts_survive_rebirth(self, kill_graph, partition,
                                               ft_level):
        """FT-only copies are the non-masters with no local edge, at load
        and on the reborn node alike."""
        engine = make_engine(kill_graph, "pagerank", num_nodes=6,
                             ft_level=ft_level, partition=partition,
                             max_iterations=8)
        before, after = _rebirth_of(engine, 2, 3)
        assert after.counts() == before.counts()

    def test_meta_positions_still_valid(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=5,
                             max_iterations=6)
        engine.schedule_failure(3, [2])
        engine.run()
        for node, lg in engine.local_graphs.items():
            for slot in lg.iter_masters():
                for rnode, pos in slot.meta.replica_positions.items():
                    replica = engine.local_graphs[rnode].slots[pos]
                    assert replica is not None and replica.gid == slot.gid


class TestStats:
    @pytest.mark.parametrize("partition", PARTS)
    def test_recovery_stats_populated(self, graph, partition):
        result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                         partition=partition, recovery="rebirth",
                         failures=[(3, [2])])
        stats = result.recoveries[0]
        assert stats.strategy == "rebirth"
        assert stats.failed_nodes == (2,)
        assert stats.newbie_nodes == (2,)
        assert stats.vertices_recovered > 0
        assert stats.recovery_messages > 0
        assert stats.recovery_bytes > 0
        assert stats.total_s > 0
        assert stats.detection_s == pytest.approx(7.0)

    def test_edge_cut_has_no_explicit_reconstruction(self, graph):
        """Fig. 9a: reconstruction folds into reloading for edge-cut."""
        result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                         recovery="rebirth", failures=[(3, [2])])
        assert result.recoveries[0].reconstruct_s == 0.0

    def test_vertex_cut_reads_edge_ckpt(self, graph):
        result = run_job(graph, "pagerank", num_nodes=5, max_iterations=6,
                         partition="hybrid_cut", recovery="rebirth",
                         failures=[(3, [2])])
        stats = result.recoveries[0]
        assert stats.edges_recovered > 0
        assert stats.reconstruct_s > 0

    def test_mirror_leads_master_recovery(self, graph):
        """After rebirth the recovered masters' mirrors are intact."""
        engine = make_engine(graph, "pagerank", num_nodes=5,
                             max_iterations=6)
        engine.schedule_failure(3, [2])
        engine.run()
        lg = engine.local_graphs[2]
        for slot in lg.iter_masters():
            for mnode in slot.meta.mirror_nodes:
                mirror = engine.local_graphs[mnode].slot_of(slot.gid)
                assert mirror.role is Role.MIRROR


class TestWriteSet:
    """Rebirth writes the reborn node only: survivors keep their SoA
    image through it (DESIGN.md §11), and whatever repair then writes
    on a survivor invalidates at the write."""

    @pytest.mark.parametrize("partition", PARTS)
    def test_repair_after_rebirth_that_creates_replicas(self, graph,
                                                        partition):
        """The membership acceptance schedule, shrunk.  The failure
        raises the adaptive floor, so post-Rebirth repair creates
        replicas: ``add_slot`` invalidates their hosts, but the new
        sync targets belong to *surviving* masters' plans."""
        from repro.chaos.invariants import InvariantChecker
        kw = dict(num_nodes=5, max_iterations=8, partition=partition,
                  ft_level=1, ft_level_max=2, num_standby=1)
        clean = run_job(graph, "pagerank", **kw)
        engine = make_engine(graph, "pagerank", recovery="rebirth", **kw)
        engine.schedule_failure(3, [2])
        checker = InvariantChecker()
        engine.attach_chaos(checker)
        result = engine.run()
        (stats,) = result.recoveries
        assert stats.strategy == "rebirth"
        assert stats.repair_replicas_created > 0
        assert checker.checks > 8  # SoA coherence at every commit point
        assert result.values == clean.values

    @pytest.mark.parametrize("partition", PARTS)
    def test_survivor_images_are_the_same_objects(self, graph, partition):
        engine = make_engine(graph, "pagerank", num_nodes=5,
                             max_iterations=6, partition=partition)
        engine.run(max_iterations=3)
        before = {n: lg.cached_topology
                  for n, lg in engine.local_graphs.items()}
        assert None not in before.values()
        engine.schedule_failure(3, [2])
        engine.run(max_iterations=4)
        for node, lg in engine.local_graphs.items():
            assert (lg.cached_topology is before[node]) == (node != 2)

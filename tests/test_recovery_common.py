"""Unit tests for the shared recovery machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import make_engine, run_job
from repro.cluster.network import MessageKind
from repro.engine.local_graph import LocalGraph
from repro.engine.messages import RecoveryBatch
from repro.engine.soa import NodeTopology
from repro.engine.state import MasterMeta, Role
from repro.errors import EngineError, UnrecoverableFailureError
from repro.ft import _recovery_common as common
from repro.ft._recovery_common import place_rows, reborn_graph
from repro.ft.edge_ckpt import dedupe
from repro.graph import generators
from repro.membership.rebalance import move_master
from repro.utils.sizing import BYTES_PER_MSG_HEADER
from tests.reference.activity import active_gids
from tests.reference.edge_ckpt import rows
from tests.reference.recovery import surviving_recoverer
from tests.test_construction_equivalence import assert_same_image
from tests.test_edge_ckpt import edges
from tests.test_messages import make_batch


class TestSurvivingRecoverer:
    def test_lowest_id_surviving_mirror(self):
        meta = MasterMeta(mirror_nodes=[4, 7, 9])
        assert surviving_recoverer(meta, failed={0}) == 4
        assert surviving_recoverer(meta, failed={4}) == 7
        assert surviving_recoverer(meta, failed={4, 7}) == 9
        assert surviving_recoverer(meta, failed={4, 7, 9}) is None

    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    def test_leading_mirrors_apply_it_to_every_orphan(self, partition):
        """Two crashed nodes at K=2 (some vertices lose their master and
        a mirror): each survivor leads exactly the orphaned mirrors the
        rule names it for, read off their slots, and stamps none."""
        g = generators.power_law(300, alpha=2.0, seed=4, avg_degree=5.0)
        engine = make_engine(g, "pagerank", num_nodes=5, ft_level=2,
                             partition=partition)
        failed = {1, 3}
        led = 0
        scan = common.ReloadScan(engine, failed)
        for node in (0, 2, 4):
            lg = engine.local_graphs[node]
            got = scan.nodes[node].lead.tolist()
            assert lg.materialized == 0
            assert got == [pos for pos, slot in enumerate(lg.slots)
                           if slot.role is Role.MIRROR
                           and slot.master_node in failed
                           and surviving_recoverer(slot.meta, failed) == node]
            led += len(got)
        assert led > 0

    def test_meta_of_refuses_a_position_it_did_not_read(self):
        """A survivor scan reads its orphans and its masters seated on a
        dead node; ``meta_of`` at any other position raises rather than
        return another row's metadata."""
        g = generators.power_law(300, alpha=2.0, seed=4, avg_degree=5.0)
        engine = make_engine(g, "pagerank", num_nodes=5, ft_level=2)
        survivor = common.ReloadScan(engine, {1, 3}).nodes[0]
        topo, orphans = survivor.topo, survivor.orphans
        assert orphans.size
        assert (survivor.meta_of(orphans)["gids"].tolist()
                == topo.gids[orphans].tolist())
        replicas = np.flatnonzero(~(topo.is_master | topo.is_mirror))
        with pytest.raises(EngineError, match="reload scan"):
            survivor.meta_of(np.concatenate((orphans, replicas[:1])))


class TestDedupeEdgeRecords:
    def test_last_wins_first_order(self):
        records = edges((0, 1, 1.0), (2, 3, 1.0), (0, 1, 0.5),
                        (0, 1, 0.25))
        deduped = rows(dedupe(records))
        assert deduped == [(0, 1, 0.25), (2, 3, 1.0)]

    def test_empty(self):
        assert rows(dedupe(edges())) == []


class TestPlaceRecoveredVertex:
    """A received row becomes a slot at its position (``place_rows``)."""

    FLAGS = (RecoveryBatch.FLAG_ACTIVE | RecoveryBatch.FLAG_LAST_ACTIVATES
             | RecoveryBatch.FLAG_SELF_ACTIVE
             | RecoveryBatch.FLAG_KNOWN_ACTIVE)

    def place(self, node=0, last_commit=4, **kw):
        row = dict(gid=3, role="master", position=2, value=1.5,
                   flags=self.FLAGS, out_degree=1, in_degree=2,
                   master_node=0, replicas={1: 0}, mirrors=[1],
                   master_position=2, last_update=4)
        row.update(kw)
        lg = LocalGraph(node)
        (slot,) = place_rows(lg, make_batch(row), last_commit,
                             ft_only=False, edge_cut=True)
        return lg, slot

    def test_positional_placement(self):
        lg, slot = self.place()
        assert lg.position_of(3) == 2
        assert slot.role is Role.MASTER
        assert slot.value == 1.5
        assert slot.active
        assert slot.last_update_iter == 4  # shipped verbatim
        assert slot.meta.replica_positions == {1: 0}
        assert slot.full_edges is None  # a master keeps its in-edges only
        assert active_gids(lg) == ({3}, set())

    def test_unstamped_when_never_updated(self):
        _, slot = self.place(flags=0, last_update=-1)
        assert slot.last_update_iter == -1

    def test_stamp_clamped_to_last_commit(self):
        # A copy can never legitimately claim an update from an
        # uncommitted iteration; the clamp keeps replay sound.
        _, slot = self.place(last_update=9)
        assert slot.last_update_iter == 4

    def test_mirror_fields(self):
        _, slot = self.place(node=1, last_commit=1, role="mirror",
                             position=0, mirror_id=0,
                             edges=[(9, 1, 2.0)])
        assert slot.is_mirror
        assert slot.mirror_self_active
        assert slot.mirror_id == 0
        assert slot.full_edges == [(9, 1, 2.0)]


class TestRelinkEdgeCut:
    """A reborn edge-cut node links its masters' shipped in-edges by
    position (``reborn_graph``)."""

    def reborn(self, replica_gid):
        batch = make_batch(
            dict(gid=0, role="master", position=0, master_position=0,
                 edges=[(9, 1, 2.0)]),  # expects gid 9 at position 1
            dict(gid=replica_gid, position=1, master_node=1))
        return reborn_graph(0, batch, 4, edge_cut=True)

    def test_positions_must_match(self):
        lg, linked = self.reborn(9)
        assert linked == 1
        assert lg.slot_of(0).in_edges == [(1, 2.0)]
        assert lg.slot_of(9).out_edges == [0]
        assert not lg.slot_of(9).ft_only  # it feeds a local master
        assert_same_image(lg.cached_topology, NodeTopology.build(lg))

    def test_mismatched_position_raises(self):
        with pytest.raises(UnrecoverableFailureError,
                           match="position 1 expected vertex 9"):
            self.reborn(8)


class TestRelinkVertexCut:
    """A reborn vertex-cut node links its edge-ckpt records by gid."""

    rows = RecoveryBatch.merge([make_batch(
        dict(gid=5, role="master", position=1, master_position=1),
        dict(gid=2, position=0, master_node=1))])

    def test_records_become_both_csrs(self):
        lg, linked = reborn_graph(0, self.rows, 4, edge_cut=False,
                                  edges=edges((2, 5, 0.5), (5, 5, 1.5)))
        assert linked == 2
        assert lg.slot_of(5).in_edges == [(0, 0.5), (1, 1.5)]
        assert lg.slot_of(2).out_edges == [1]
        assert lg.slot_of(5).out_edges == [1]
        assert_same_image(lg.cached_topology, NodeTopology.build(lg))

    def test_missing_endpoint_raises(self):
        with pytest.raises(UnrecoverableFailureError,
                           match=r"edge \(2, 7\) endpoints missing"):
            reborn_graph(0, self.rows, 4, edge_cut=False,
                         edges=edges((2, 5, 0.5), (2, 7, 1.0)))


class TestPlaceReplicas:
    """One batched plain-replica writer behind Migration's edge reload,
    ``move_master`` and FT repair (each once had its own per-row
    loop)."""

    @pytest.fixture(scope="class")
    def graph(self):
        return generators.power_law(120, alpha=2.0, seed=5, avg_degree=5.0)

    @staticmethod
    def recovery_bytes(engine):
        return engine.cluster.network.totals.bytes_by_kind[
            MessageKind.RECOVERY]

    def test_registers_in_master_and_every_mirror_copy(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=5, ft_level=2,
                             num_standby=0, max_iterations=4)
        node = 0
        gids = [gid for gid in range(graph.num_vertices)
                if gid not in engine.local_graphs[node].index_of][:6]
        masters = [engine.local_graphs[engine.master_node_of[gid]]
                   .slot_of(gid) for gid in gids]
        assert len({engine.master_node_of[gid] for gid in gids}) > 1
        mirrors = [list(master.meta.mirror_nodes) for master in masters]
        assert all(len(seats) == 2 for seats in mirrors)
        for master in masters:
            master.meta.sync_targets()  # warm the cache it must drop
        base = len(engine.local_graphs[node].slots)
        before = self.recovery_bytes(engine)
        nbytes = common.place_replicas(engine, node, gids, False)
        lg = engine.local_graphs[node]
        for position, gid, master, seats in zip(
                range(base, base + len(gids)), gids, masters, mirrors):
            slot = lg.slot_of(gid)
            assert lg.position_of(gid) == position
            assert slot.role is Role.REPLICA and slot.meta is None
            assert not slot.ft_only
            assert slot.value == master.value
            assert slot.master_node == engine.master_node_of[gid]
            assert master.meta.replica_positions[node] == position
            assert (node, False) in master.meta.sync_targets()
            for mirror_node in seats:
                copy = engine.local_graphs[mirror_node].slot_of(gid).meta
                assert copy.replica_positions[node] == position
        assert self.recovery_bytes(engine) - before \
            == nbytes + len(gids) * BYTES_PER_MSG_HEADER

    def test_both_callers_book_their_bytes_through_it(self, graph,
                                                      monkeypatch):
        booked = []
        real = common.place_replicas

        def spy(engine, node, gids, ft_only):
            gids = list(gids)
            before = self.recovery_bytes(engine)
            nbytes = real(engine, node, gids, ft_only)
            booked.append((ft_only, len(gids), nbytes,
                           self.recovery_bytes(engine) - before))
            return nbytes

        monkeypatch.setattr(common, "place_replicas", spy)
        # Caller 1: Migration reloads a crashed node's vertex-cut edges
        # onto survivors that lack some endpoints.
        run_job(graph, "pagerank", num_nodes=5, max_iterations=5,
                partition="random_vertex_cut", ft_level=1, num_standby=0,
                recovery="migration", failures=[(2, (0,))])
        from_migration = len(booked)

        def placed_for_edges(entries):
            return any(not ft_only and count
                       for ft_only, count, *_ in entries)

        assert placed_for_edges(booked)
        # Caller 2: a moved master's in-edge sources are missing on the
        # destination.
        engine = make_engine(graph, "pagerank", num_nodes=5, ft_level=1,
                             num_standby=0, max_iterations=4)
        for gid in range(graph.num_vertices):
            dst = (engine.master_node_of[gid] + 1) % 5
            move_master(engine, gid, dst)
            if placed_for_edges(booked[from_migration:]):
                break
        assert placed_for_edges(booked[from_migration:])
        # An edge's replicas ship one message each; FT repair's are
        # charged by its round.
        assert all(delta == (0 if ft_only
                             else nbytes + count * BYTES_PER_MSG_HEADER)
                   for ft_only, count, nbytes, delta in booked)

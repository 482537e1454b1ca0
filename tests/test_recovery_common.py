"""Unit tests for the shared recovery machinery."""

from __future__ import annotations

import pytest

from repro.api import make_engine, run_job
from repro.cluster.network import MessageKind
from repro.engine.local_graph import LocalGraph
from repro.engine.messages import RecoveryBatch
from repro.engine.soa import NodeTopology
from repro.engine.state import MasterMeta, Role
from repro.errors import UnrecoverableFailureError
from repro.ft import _recovery_common as common
from repro.ft._recovery_common import (
    place_rows,
    reborn_graph,
    surviving_recoverer,
)
from repro.ft.edge_ckpt import EdgeRecord, dedupe_edge_records
from repro.graph import generators
from repro.membership.rebalance import move_master
from repro.utils.sizing import BYTES_PER_MSG_HEADER
from tests.test_construction_equivalence import assert_same_image
from tests.test_messages import make_batch


class TestSurvivingRecoverer:
    def test_lowest_id_surviving_mirror(self):
        meta = MasterMeta(mirror_nodes=[4, 7, 9])
        assert surviving_recoverer(meta, failed={0}) == 4
        assert surviving_recoverer(meta, failed={4}) == 7
        assert surviving_recoverer(meta, failed={4, 7}) == 9
        assert surviving_recoverer(meta, failed={4, 7, 9}) is None


class TestDedupeEdgeRecords:
    def test_last_wins_first_order(self):
        records = [EdgeRecord(0, 1, 1.0), EdgeRecord(2, 3, 1.0),
                   EdgeRecord(0, 1, 0.5), EdgeRecord(0, 1, 0.25)]
        deduped = dedupe_edge_records(records)
        assert deduped == [EdgeRecord(0, 1, 0.25), EdgeRecord(2, 3, 1.0)]

    def test_empty(self):
        assert dedupe_edge_records([]) == []


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
        assert lg.active_masters == {3}

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
                                  edge_records=[EdgeRecord(2, 5, 0.5),
                                                EdgeRecord(5, 5, 1.5)])
        assert linked == 2
        assert lg.slot_of(5).in_edges == [(0, 0.5), (1, 1.5)]
        assert lg.slot_of(2).out_edges == [1]
        assert lg.slot_of(5).out_edges == [1]
        assert_same_image(lg.cached_topology, NodeTopology.build(lg))

    def test_missing_endpoint_raises(self):
        with pytest.raises(UnrecoverableFailureError,
                           match=r"edge \(2, 7\) endpoints missing"):
            reborn_graph(0, self.rows, 4, edge_cut=False,
                         edge_records=[EdgeRecord(2, 5, 0.5),
                                       EdgeRecord(2, 7, 1.0)])


class TestCreateReplica:
    """One plain-replica helper behind Migration's edge reload and
    ``move_master`` (it used to exist verbatim in both)."""

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
        gid, node = next(
            (gid, node) for gid in range(graph.num_vertices)
            for node in range(5)
            if gid not in engine.local_graphs[node].index_of)
        master = engine.local_graphs[
            engine.master_node_of[gid]].slot_of(gid)
        mirrors = list(master.meta.mirror_nodes)
        assert len(mirrors) == 2
        master.meta.sync_targets()  # warm the cache the helper must drop
        before = self.recovery_bytes(engine)
        position, nbytes = common.create_replica(engine, gid, node)
        slot = engine.local_graphs[node].slot_of(gid)
        assert engine.local_graphs[node].position_of(gid) == position
        assert slot.role is Role.REPLICA and slot.meta is None
        assert slot.value == master.value
        assert slot.master_node == engine.master_node_of[gid]
        assert master.meta.replica_positions[node] == position
        assert (node, False) in master.meta.sync_targets()
        for mirror_node in mirrors:
            copy = engine.local_graphs[mirror_node].slot_of(gid).meta
            assert copy.replica_positions[node] == position
        assert self.recovery_bytes(engine) - before \
            == nbytes + BYTES_PER_MSG_HEADER

    def test_both_callers_book_their_bytes_through_it(self, graph,
                                                      monkeypatch):
        booked = []
        real = common.create_replica

        def spy(engine, gid, node):
            before = self.recovery_bytes(engine)
            position, nbytes = real(engine, gid, node)
            booked.append((nbytes, self.recovery_bytes(engine) - before))
            return position, nbytes

        monkeypatch.setattr(common, "create_replica", spy)
        # Caller 1: Migration reloads a crashed node's vertex-cut edges
        # onto survivors that lack some endpoints.
        run_job(graph, "pagerank", num_nodes=5, max_iterations=5,
                partition="random_vertex_cut", ft_level=1, num_standby=0,
                recovery="migration", failures=[(2, (0,))])
        from_migration = len(booked)
        assert from_migration > 0
        # Caller 2: a moved master's in-edge sources are missing on the
        # destination.
        engine = make_engine(graph, "pagerank", num_nodes=5, ft_level=1,
                             num_standby=0, max_iterations=4)
        for gid in range(graph.num_vertices):
            dst = (engine.master_node_of[gid] + 1) % 5
            move_master(engine, gid, dst)
            if len(booked) > from_migration:
                break
        assert len(booked) > from_migration
        assert all(delta == nbytes + BYTES_PER_MSG_HEADER
                   for nbytes, delta in booked)

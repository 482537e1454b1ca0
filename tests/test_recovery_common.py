"""Unit tests for the shared recovery machinery."""

from __future__ import annotations

import pytest

from repro.api import make_engine, run_job
from repro.cluster.network import MessageKind
from repro.engine.local_graph import LocalGraph
from repro.engine.messages import RecoveredVertex
from repro.engine.state import MasterMeta, Role, VertexSlot
from repro.errors import UnrecoverableFailureError
from repro.ft import _recovery_common as common
from repro.ft._recovery_common import (
    place_recovered_vertex,
    relink_edge_cut_topology,
    surviving_recoverer,
)
from repro.ft.edge_ckpt import EdgeRecord, dedupe_edge_records
from repro.graph import generators
from repro.membership.rebalance import move_master
from repro.utils.sizing import BYTES_PER_MSG_HEADER


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
    def make_rv(self, **kw):
        defaults = dict(gid=3, role="master", position=2, value=1.5,
                        active=True, last_activates=True, out_degree=1,
                        in_degree=2, master_node=0,
                        replica_positions={1: 0}, mirror_nodes=[1],
                        master_position=2, self_active=True,
                        known_active=True, last_update_iter=4)
        defaults.update(kw)
        return RecoveredVertex(**defaults)

    def test_positional_placement(self):
        lg = LocalGraph(0)
        slot = place_recovered_vertex(lg, self.make_rv(), last_commit=4)
        assert lg.position_of(3) == 2
        assert slot.role is Role.MASTER
        assert slot.value == 1.5
        assert slot.active
        assert slot.last_update_iter == 4  # shipped verbatim
        assert slot.meta.replica_positions == {1: 0}
        assert lg.active_masters == {3}

    def test_unstamped_when_never_updated(self):
        lg = LocalGraph(0)
        slot = place_recovered_vertex(
            lg, self.make_rv(last_activates=False, last_update_iter=-1),
            last_commit=4)
        assert slot.last_update_iter == -1

    def test_stamp_clamped_to_last_commit(self):
        # A snapshot can never legitimately claim an update from an
        # uncommitted iteration; the clamp keeps replay sound.
        lg = LocalGraph(0)
        slot = place_recovered_vertex(
            lg, self.make_rv(last_update_iter=9), last_commit=4)
        assert slot.last_update_iter == 4

    def test_mirror_fields(self):
        lg = LocalGraph(1)
        rv = self.make_rv(role="mirror", position=0, mirror_id=0)
        slot = place_recovered_vertex(lg, rv, last_commit=1)
        assert slot.is_mirror
        assert slot.mirror_self_active


class TestRelinkEdgeCut:
    def test_positions_must_match(self):
        lg = LocalGraph(0)
        master = VertexSlot(gid=0, role=Role.MASTER, meta=MasterMeta())
        master.full_edges = [(9, 1, 2.0)]  # expects gid 9 at position 1
        lg.add_slot(master, position=0)
        lg.add_slot(VertexSlot(gid=9, role=Role.REPLICA), position=1)
        linked = relink_edge_cut_topology(lg)
        assert linked == 1
        assert lg.slot_of(0).in_edges == [(1, 2.0)]
        assert lg.slot_of(9).out_edges == [0]

    def test_mismatched_position_raises(self):
        lg = LocalGraph(0)
        master = VertexSlot(gid=0, role=Role.MASTER, meta=MasterMeta())
        master.full_edges = [(9, 1, 2.0)]
        lg.add_slot(master, position=0)
        lg.add_slot(VertexSlot(gid=8, role=Role.REPLICA), position=1)
        with pytest.raises(UnrecoverableFailureError):
            relink_edge_cut_topology(lg)


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

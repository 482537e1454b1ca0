"""Message payload tests: wire-size accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.messages import RecoveryBatch, csr_ptr
from repro.engine.state import Role
from repro.utils.sizing import BYTES_PER_EDGE, BYTES_PER_VID


def make_batch(*rows: dict, src_node: int = 0,
               iteration: int = 4) -> RecoveryBatch:
    """A recovery batch from one dict per row (unnamed fields default to
    a plain replica with value 1.0 and no metadata or edges)."""
    def column(key, default, dtype=np.int64):
        return np.array([row.get(key, default) for row in rows], dtype=dtype)

    replicas = [row.get("replicas", {}) for row in rows]
    mirrors = [row.get("mirrors", []) for row in rows]
    edges = [row.get("edges", []) for row in rows]
    flat = [e for row_edges in edges for e in row_edges]
    return RecoveryBatch(
        src_node, iteration, gids=column("gid", 1),
        positions=column("position", 0),
        roles=np.array([RecoveryBatch.ROLES.index(Role(row.get(
            "role", "replica"))) for row in rows], dtype=np.int64),
        values=[row.get("value", 1.0) for row in rows],
        flags=column("flags", 0), last_update=column("last_update", -1),
        out_degree=column("out_degree", 0), in_degree=column("in_degree", 0),
        selfish=column("selfish", False, bool),
        mirror_id=column("mirror_id", -1),
        master_node=column("master_node", 0),
        master_position=column("master_position", -1),
        replica_ptr=csr_ptr([len(r) for r in replicas]),
        replica_nodes=np.array([n for r in replicas for n in r],
                               dtype=np.int64),
        replica_positions=np.array([p for r in replicas for p in r.values()],
                                   dtype=np.int64),
        mirror_ptr=csr_ptr([len(m) for m in mirrors]),
        mirror_nodes=np.array([n for m in mirrors for n in m],
                              dtype=np.int64),
        edge_ptr=csr_ptr([len(e) for e in edges]),
        edge_gids=np.array([e[0] for e in flat], dtype=np.int64),
        edge_positions=np.array([e[1] for e in flat], dtype=np.int64),
        edge_weights=np.array([e[2] for e in flat], dtype=np.float64))


class TestRecoveredVertex:
    """One row of a recovery batch: an id, 8 bytes of flags and degrees,
    the value and a 4-byte position, plus its edges and metadata."""

    def row_nbytes(self, **kw):
        return make_batch(dict(kw)).rows_nbytes(lambda v: 8)

    def test_replica_size(self):
        assert self.row_nbytes() == BYTES_PER_VID + 8 + 8 + 4

    def test_edges_add_size(self):
        assert self.row_nbytes(role="mirror", edges=[(0, 0, 1.0)] * 5) == (
            self.row_nbytes() + 5 * BYTES_PER_EDGE)

    def test_meta_adds_size(self):
        assert self.row_nbytes(role="mirror", replicas={1: 0, 2: 3},
                               mirrors=[1]) == (
            self.row_nbytes() + 2 * (BYTES_PER_VID + 4) + 4)


class TestRecoveryBatch:
    def test_batch_sums_vertices(self):
        one = make_batch(dict(gid=1, position=0))
        two = make_batch(dict(gid=1, position=0), dict(gid=2, position=1))
        assert two.nbytes(lambda v: 8) > one.nbytes(lambda v: 8)
        assert two.nbytes(lambda v: 8) == 16 + 2 * one.rows_nbytes(
            lambda v: 8)

    def test_nbytes_pinned_on_every_kind_of_row(self):
        """A master with its in-edges and metadata, an edge-cut mirror,
        a plain replica — and a batch of nothing, which still ships its
        16 bytes of global state.  The numbers are the per-vertex sums
        the record-at-a-time format booked."""
        batch = make_batch(
            dict(gid=7, role="master", position=3, replicas={1: 0, 4: 2},
                 mirrors=[4], master_position=3,
                 edges=[(2, 0, 1.0), (5, 1, 0.5), (9, 2, 2.0)]),
            dict(gid=8, role="mirror", position=5, mirror_id=0,
                 replicas={0: 1, 2: 6}, mirrors=[0, 2], master_position=9,
                 edges=[(3, 4, 1.0)]),
            dict(gid=9, position=6, value=(0.5, 0.25)))
        sizes = {7: 8 + 12 + 8 + 3 * 24 + 2 * 12 + 4,
                 8: 8 + 12 + 8 + 24 + 2 * 12 + 2 * 4,
                 9: 8 + 12 + 16}
        assert sizes == {7: 128, 8: 84, 9: 36}
        value_nbytes = (lambda v: 8 * len(v) if isinstance(v, tuple)
                        else 8)
        assert batch.nbytes(value_nbytes) == 16 + 128 + 84 + 36
        assert RecoveryBatch.empty().nbytes(value_nbytes) == 16
        assert RecoveryBatch.merge([]).nbytes(value_nbytes) == 16

    def test_merge_orders_rows_by_position_and_keeps_them_whole(self):
        first = make_batch(
            dict(gid=1, position=4, role="master", replicas={2: 0},
                 mirrors=[2], edges=[(4, 1, 1.0)]),
            dict(gid=2, position=0))
        second = make_batch(
            dict(gid=3, position=2, role="mirror", replicas={5: 1},
                 mirrors=[5], edges=[(6, 0, 2.0), (7, 2, 3.0)]),
            src_node=1)
        merged = RecoveryBatch.merge([first, second])
        assert merged.gids.tolist() == [2, 3, 1]
        assert merged.positions.tolist() == [0, 2, 4]
        assert merged.edge_ptr.tolist() == [0, 0, 2, 3]
        assert merged.edge_gids.tolist() == [6, 7, 4]
        assert merged.replica_nodes.tolist() == [5, 2]
        assert merged.selfish.dtype == bool
        assert merged.nbytes(lambda v: 8) == (
            first.nbytes(lambda v: 8) + second.nbytes(lambda v: 8) - 16)

    def test_negative_message_size_rejected(self):
        from repro.cluster.network import Message, MessageKind
        with pytest.raises(ValueError):
            Message(MessageKind.SYNC, 0, 1, None, -2)

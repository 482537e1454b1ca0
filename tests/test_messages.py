"""Message payload tests: wire-size accounting."""

from __future__ import annotations

import pytest

from repro.engine.messages import RecoveredVertex, RecoveryBatch
from repro.utils.sizing import BYTES_PER_EDGE, BYTES_PER_VID


class TestRecoveredVertex:
    def base(self, **kw):
        defaults = dict(gid=1, role="replica", position=0, value=1.0,
                        active=True, last_activates=False, out_degree=2,
                        in_degree=3, master_node=0)
        defaults.update(kw)
        return RecoveredVertex(**defaults)

    def test_replica_size(self):
        assert self.base().nbytes(8) == BYTES_PER_VID + 8 + 8 + 4

    def test_edges_add_size(self):
        rv = self.base(full_edges=[(0, 0, 1.0)] * 5)
        assert rv.nbytes(8) == self.base().nbytes(8) + 5 * BYTES_PER_EDGE

    def test_meta_adds_size(self):
        rv = self.base(replica_positions={1: 0, 2: 3}, mirror_nodes=[1])
        assert rv.nbytes(8) == (self.base().nbytes(8)
                                + 2 * (BYTES_PER_VID + 4) + 4)


class TestRecoveryBatch:
    def test_batch_sums_vertices(self):
        batch = RecoveryBatch(src_node=0, iteration=4)
        batch.vertices.append(RecoveredVertex(
            gid=1, role="replica", position=0, value=1.0, active=True,
            last_activates=False, out_degree=0, in_degree=0,
            master_node=0))
        one = batch.nbytes(lambda v: 8)
        batch.vertices.append(RecoveredVertex(
            gid=2, role="replica", position=1, value=1.0, active=True,
            last_activates=False, out_degree=0, in_degree=0,
            master_node=0))
        assert batch.nbytes(lambda v: 8) > one

    def test_negative_message_size_rejected(self):
        from repro.cluster.network import Message, MessageKind
        with pytest.raises(ValueError):
            Message(MessageKind.SYNC, 0, 1, None, -2)

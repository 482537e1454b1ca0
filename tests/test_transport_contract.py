"""Pipe transport suite (DESIGN.md §12).

:class:`repro.exec.transport.PipeTransport` — the fixture of the
benchmark ledger's multiprocessing layer probe — must be FIFO per
sender, lossless with visible backpressure, and carry every columnar
batch type through the codec unchanged.
"""

from __future__ import annotations

import pytest

from repro.engine.messages import (ActivateBatch, ActiveBroadcastBatch,
                                   GatherBatch, SyncBatch)
from repro.exec.serialize import (decode_batch, encode_batch,
                                  encoded_nbytes, encoded_records)
from repro.exec.transport import TransportClosed, pipe_pair


@pytest.fixture(params=["pipe"])
def endpoints(request):
    """A connected pipe pair ``(a, b)`` with ranks 0 and 1."""
    a, b = pipe_pair(0, 1)
    yield a, b
    a.close()
    b.close()


class TestOrdering:
    def test_fifo_per_sender(self, endpoints):
        a, b = endpoints
        for i in range(50):
            a.send(1, ("frame", i))
        got = [b.recv(timeout=5.0) for _ in range(50)]
        assert got == [(0, ("frame", i)) for i in range(50)]

    def test_duplex_no_crosstalk(self, endpoints):
        a, b = endpoints
        a.send(1, "to-b")
        b.send(0, "to-a")
        assert b.recv(timeout=5.0) == (0, "to-b")
        assert a.recv(timeout=5.0) == (1, "to-a")


class TestBackpressure:
    def test_pending_counts_buffered_frames(self, endpoints):
        a, b = endpoints
        assert b.pending() == 0
        for i in range(20):
            a.send(1, i)
        assert b.pending() == 20
        assert b.poll()
        # Lossless: the full backlog drains in order.
        assert [b.recv(timeout=5.0)[1] for i in range(20)] == list(range(20))
        assert b.pending() == 0
        assert not b.poll()

    def test_recv_empty_times_out(self, endpoints):
        _a, b = endpoints
        with pytest.raises(TimeoutError):
            b.recv(timeout=0.01)


class TestClose:
    def test_send_after_close_raises(self, endpoints):
        a, b = endpoints
        a.close()
        with pytest.raises(TransportClosed):
            a.send(1, "late")


def _batch_specimens():
    plain = SyncBatch()
    plain.append(7, 0, 0.25, 8, True)
    plain.append(9, 4, -1.5, 8, False)
    full = SyncBatch(full_state=True)
    full.append(3, 1, 2.0, 8, True, True, ((0, 0.5), (2, 1.25)))
    full.append(5, 2, 0.0, 8, False, False, ())
    gather = GatherBatch()
    gather.append(11, 0.125, 8)
    gather.append(13, 4.75, 8)
    activate = ActivateBatch([2, 4, 6])
    broadcast = ActiveBroadcastBatch()
    broadcast.append(1, True)
    broadcast.append(8, False)
    return [plain, full, gather, activate, broadcast]


@pytest.mark.parametrize("batch", _batch_specimens(),
                         ids=["sync", "mirror_sync", "gather",
                              "activate", "broadcast"])
def test_batch_round_trip(endpoints, batch):
    """All four columnar batch types survive the wire unchanged, with
    the codec's accounting fields matching the originals."""
    a, b = endpoints
    enc = encode_batch(batch)
    assert encoded_records(enc) == batch.record_count
    assert encoded_nbytes(enc) == batch.nbytes()
    a.send(1, enc)
    src, received = b.recv(timeout=5.0)
    assert src == 0
    decoded = decode_batch(received)
    assert type(decoded) is type(batch)
    assert decoded.record_count == batch.record_count
    assert decoded.nbytes() == batch.nbytes()
    assert list(decoded.gids) == list(batch.gids)
    if isinstance(batch, SyncBatch):
        assert list(decoded.positions) == list(batch.positions)
        assert list(decoded.values) == list(batch.values)
        assert list(decoded.flags) == list(batch.flags)
        assert list(decoded.sizes) == list(batch.sizes)
        assert decoded.full_state == batch.full_state
        if batch.full_state:
            assert list(decoded.edge_updates) == list(batch.edge_updates)
    elif isinstance(batch, GatherBatch):
        assert list(decoded.accs) == list(batch.accs)
        assert list(decoded.sizes) == list(batch.sizes)
    elif isinstance(batch, ActiveBroadcastBatch):
        assert list(decoded.actives) == list(batch.actives)

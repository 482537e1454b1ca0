"""Network transport tests: batching counters, drops, purges."""

from __future__ import annotations

import pytest

from repro.cluster.network import Message, MessageKind, Network
from repro.errors import UnknownNodeError
from repro.utils.sizing import BYTES_PER_MSG_HEADER


def make_net(alive=None):
    alive = set(alive) if alive is not None else {0, 1, 2}
    return Network(is_alive=lambda n: n in alive), alive


class TestSendDeliver:
    def test_roundtrip(self):
        net, _ = make_net()
        net.send(Message(MessageKind.SYNC, 0, 1, "hello", 10))
        inbox = net.deliver(1)
        assert len(inbox) == 1
        assert inbox[0].payload == "hello"
        assert net.deliver(1) == []  # drained

    def test_local_delivery_not_counted(self):
        net, _ = make_net()
        net.begin_step()
        net.send(Message(MessageKind.SYNC, 1, 1, "self", 10))
        assert net.step_bytes_sent_by(1) == 0
        assert len(net.deliver(1)) == 1
        assert net.totals.total_msgs == 0

    def test_remote_counted_with_header(self):
        net, _ = make_net()
        net.begin_step()
        net.send(Message(MessageKind.SYNC, 0, 1, "x", 10))
        assert net.step_bytes_sent_by(0) == 10 + BYTES_PER_MSG_HEADER
        assert net.step_msgs_sent_by(0) == 1
        assert net.totals.total_msgs == 1
        assert net.totals.msgs_by_kind[MessageKind.SYNC] == 1

    def test_send_to_dead_node_drops(self):
        net, alive = make_net({0, 1})
        net.send(Message(MessageKind.SYNC, 0, 2, "x", 8))
        assert net.metrics.value("net.dropped_msgs") == 1
        assert net.metrics.value("net.dropped_bytes") \
            == 8 + BYTES_PER_MSG_HEADER

    def test_dropped_bytes_accumulate_and_stay_out_of_totals(self):
        net, _ = make_net({0, 1})
        net.begin_step()
        net.send(Message(MessageKind.SYNC, 0, 2, "x", 8))
        net.send(Message(MessageKind.GATHER, 1, 2, "yy", 24))
        assert net.metrics.value("net.dropped_msgs") == 2
        assert net.metrics.value("net.dropped_bytes") \
            == 8 + 24 + 2 * BYTES_PER_MSG_HEADER
        # Dropped traffic never pollutes the delivered-bytes accounting.
        assert net.totals.total_bytes == 0
        assert net.step_bytes_sent_by(0) == 0

    def test_deliver_to_dead_node_raises(self):
        net, _ = make_net({0})
        with pytest.raises(UnknownNodeError):
            net.deliver(5)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(MessageKind.SYNC, 0, 1, "x", -1)


class TestPurges:
    def test_purge_from_drops_in_flight(self):
        net, _ = make_net()
        net.send(Message(MessageKind.SYNC, 0, 1, "a", 8))
        net.send(Message(MessageKind.SYNC, 2, 1, "b", 8))
        assert net.purge_from(0) == 1
        inbox = net.deliver(1)
        assert [m.src for m in inbox] == [2]

    def test_purge_inbox(self):
        net, _ = make_net()
        net.send(Message(MessageKind.SYNC, 0, 1, "a", 8))
        assert net.purge_inbox(1) == 1
        assert net.deliver(1) == []

    def test_purge_empty_queues_is_noop(self):
        net, _ = make_net()
        assert net.purge_from(0) == 0
        assert net.purge_inbox(1) == 0
        # Queues stay usable after purging nothing.
        net.send(Message(MessageKind.SYNC, 0, 1, "a", 8))
        assert len(net.deliver(1)) == 1

    def test_purge_from_drops_self_addressed(self):
        # A crashed node's memory is gone, including messages it queued
        # to itself via the local fast path.
        net, _ = make_net()
        net.send(Message(MessageKind.SYNC, 0, 0, "self", 8))
        assert net.purge_from(0) == 1
        assert net.peek_inbox_size(0) == 0

    def test_double_purge_idempotent(self):
        net, _ = make_net()
        net.send(Message(MessageKind.SYNC, 0, 1, "a", 8))
        net.send(Message(MessageKind.SYNC, 0, 2, "b", 8))
        assert net.purge_from(0) == 2
        assert net.purge_from(0) == 0
        assert net.purge_inbox(1) == 0

    def test_purge_covers_delayed_messages(self):
        net, _ = make_net()
        net.fault_injector = lambda msg: "delay"
        net.send(Message(MessageKind.SYNC, 0, 1, "late", 8))
        assert net.peek_inbox_size(1) == 1
        assert net.purge_from(0) == 1
        assert net.deliver(1) == []


class TestStepCounters:
    def test_begin_step_resets(self):
        net, _ = make_net()
        net.begin_step()
        net.send(Message(MessageKind.SYNC, 0, 1, "a", 8))
        net.begin_step()
        assert net.step_bytes_sent_by(0) == 0
        # lifetime totals survive
        assert net.totals.total_msgs == 1

    def test_pairwise_accumulation(self):
        net, _ = make_net()
        net.begin_step()
        for _ in range(3):
            net.send(Message(MessageKind.GATHER, 0, 2, "p", 8))
        assert net.step_msgs[0][2] == 3
        assert net.peek_inbox_size(2) == 3

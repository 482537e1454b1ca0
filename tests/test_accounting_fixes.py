"""Regression tests for the network/barrier accounting bug sweep.

Four bugs, one test class each:

* the barrier's activation exchange consumed *every* inbox message as
  an activation, payload semantics be damned;
* a ``duplicate`` chaos verdict enqueued the *same* ``Message`` object
  twice, so mutating one delivery corrupted the other;
* ``purge_from`` never deducted purged traffic from the step counters,
  charging the rolled-back barrier comm time for exchanges that never
  completed;
* ``deliver``/``purge_inbox`` left empty defaultdict keys behind for
  every dead node id, an unbounded leak across rebirth cycles.
"""

from __future__ import annotations

import pytest

from repro.api import make_engine
from repro.cluster.network import Message, MessageKind, Network
from repro.costmodel import DEFAULT_COST_MODEL, pairwise_comm_time
from repro.engine.messages import SyncBatch
from repro.errors import EngineError
from repro.graph import generators
from repro.utils.sizing import BYTES_PER_MSG_HEADER


def make_net(alive=None):
    alive = set(alive) if alive is not None else {0, 1, 2}
    net = Network(is_alive=lambda n: n in alive)
    net.begin_step()
    return net


class TestActivationDrainFilter:
    def _engine_at_activation_iteration(self):
        """Drive a vertex-cut SSSP run up to an iteration that sends
        remote activation signals (the frontier crosses nodes)."""
        graph = generators.chain(32, weighted=True, seed=3)
        engine = make_engine(graph, "sssp", num_nodes=4,
                             partition="random_vertex_cut",
                             max_iterations=8,
                             algorithm_kwargs={"source": 0})
        for _ in range(2):
            assert engine._run_superstep() is None
            engine._commit_barrier()
            engine.iteration += 1
        assert engine._run_superstep() is None
        return engine

    def test_stray_message_in_activation_exchange_raises(self):
        engine = self._engine_at_activation_iteration()
        alive = engine._alive()
        net = engine.cluster.network
        engine._apply_received_syncs(alive, net)
        engine._commit_edge_mutations()
        # A message surviving past the sync drain is a sequencing bug;
        # the old drain would have silently flipped a next_active flag.
        net.send(Message(MessageKind.CONTROL, alive[0], alive[1],
                         ("stale", 0), 4))
        with pytest.raises(EngineError, match="activation exchange"):
            engine._commit_values(alive, net)

    def test_clean_activation_exchange_commits(self):
        engine = self._engine_at_activation_iteration()
        alive = engine._alive()
        net = engine.cluster.network
        engine._apply_received_syncs(alive, net)
        engine._commit_edge_mutations()
        total_active = engine._commit_values(alive, net)
        assert total_active > 0
        # Every inbox fully drained: no messages leak past the barrier.
        assert net.queued_node_ids() == set()


class TestDuplicateIndependence:
    def test_duplicate_delivers_independent_copies(self):
        net = make_net()
        net.fault_injector = lambda msg: "duplicate"
        net.send(Message(MessageKind.SYNC, 0, 1, {"edges": [1, 2]}, 8))
        inbox = net.deliver(1)
        assert len(inbox) == 2
        assert inbox[0].payload is not inbox[1].payload
        # A consumer mutating one copy must not corrupt the other.
        inbox[0].payload["edges"].append(99)
        assert inbox[1].payload["edges"] == [1, 2]

    def test_duplicate_batch_uses_payload_clone(self):
        """Columnar batches clone via ``payload.clone()`` — cheaper than
        ``copy.deepcopy`` and still an independent copy per delivery."""
        net = make_net()
        net.fault_injector = lambda msg: "duplicate"
        batch = SyncBatch()
        batch.append(7, 0, 0.25, 8, activates=True)
        batch.append(9, 1, 0.5, 8, activates=False)
        net.send(Message(MessageKind.SYNC, 0, 1, batch, batch.nbytes()))
        inbox = net.deliver(1)
        assert len(inbox) == 2
        assert inbox[0].payload is not inbox[1].payload
        assert inbox[0].payload.gids is not inbox[1].payload.gids
        inbox[0].payload.values[0] = -1.0
        inbox[0].payload.gids.append(99)
        assert inbox[1].payload.values == [0.25, 0.5]
        assert inbox[1].payload.gids == [7, 9]
        assert inbox[1].payload.nbytes() == batch.nbytes()

    def test_both_copies_fully_counted(self):
        net = make_net()
        net.fault_injector = lambda msg: "duplicate"
        net.send(Message(MessageKind.SYNC, 0, 1, "x", 8))
        wire = 8 + BYTES_PER_MSG_HEADER
        assert net.metrics.value("net.chaos_duplicated_msgs") == 1
        assert net.totals.total_msgs == 2
        assert net.totals.total_bytes == 2 * wire
        assert net.step_msgs_sent_by(0) == 2
        assert net.step_bytes_sent_by(0) == 2 * wire


class TestPurgeStepDeduction:
    def test_purge_from_deducts_step_counters(self):
        net = make_net()
        net.send(Message(MessageKind.SYNC, 0, 1, "a", 40))
        net.send(Message(MessageKind.SYNC, 0, 2, "b", 24))
        net.send(Message(MessageKind.SYNC, 2, 1, "c", 16))
        assert net.purge_from(0) == 2
        assert net.step_bytes_sent_by(0) == 0
        assert net.step_msgs_sent_by(0) == 0
        # Survivor traffic untouched, lifetime totals keep everything.
        assert net.step_msgs_sent_by(2) == 1
        assert net.totals.total_msgs == 3
        assert net.metrics.value("net.purged_msgs") == 2

    def test_self_sends_never_deducted(self):
        net = make_net()
        net.send(Message(MessageKind.SYNC, 0, 0, "self", 8))
        net.send(Message(MessageKind.SYNC, 0, 1, "out", 8))
        assert net.purge_from(0) == 2
        # The self-send was never step-counted; no underflow.
        assert net.step_bytes_sent_by(0) == 0
        assert net.step_msgs_sent_by(0) == 0

    def test_purge_restores_cost_model_baseline(self):
        """The rolled-back barrier must charge exactly the surviving
        traffic's communication time — as if the crashed node had
        never sent its batch."""
        model = DEFAULT_COST_MODEL
        baseline = make_net()
        baseline.send(Message(MessageKind.SYNC, 2, 1, "c" * 16, 16))
        expected = pairwise_comm_time(model, baseline.step_bytes,
                                      baseline.step_msgs, 1)
        net = make_net()
        net.send(Message(MessageKind.SYNC, 0, 1, "a" * 4096, 4096))
        net.send(Message(MessageKind.SYNC, 2, 1, "c" * 16, 16))
        inflated = pairwise_comm_time(model, net.step_bytes,
                                      net.step_msgs, 1)
        net.purge_from(0)
        after = pairwise_comm_time(model, net.step_bytes, net.step_msgs, 1)
        assert inflated > expected
        assert after == pytest.approx(expected)


class TestQueueKeyBoundedness:
    def test_deliver_removes_queue_keys(self):
        net = make_net()
        net.send(Message(MessageKind.SYNC, 0, 1, "x", 8))
        net.deliver(1)
        assert net.queued_node_ids() == set()

    def test_purge_inbox_removes_keys(self):
        net = make_net()
        net.fault_injector = lambda msg: "delay"
        net.send(Message(MessageKind.SYNC, 0, 1, "late", 8))
        net.fault_injector = None
        net.send(Message(MessageKind.SYNC, 2, 1, "x", 8))
        assert net.purge_inbox(1) == 2
        assert net.queued_node_ids() == set()
        assert net.metrics.value("net.purged_msgs") == 2

    def test_purge_from_removes_emptied_keys(self):
        net = make_net()
        net.send(Message(MessageKind.SYNC, 0, 1, "x", 8))
        net.purge_from(0)
        assert net.queued_node_ids() == set()

    def test_no_key_leak_across_rebirth_cycles(self):
        """Repeated crash/rebirth cycles must not grow the queue maps:
        every dead incarnation's entries are removed outright."""
        graph = generators.power_law(120, alpha=2.0, seed=19,
                                     avg_degree=5.0)
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             max_iterations=8, num_standby=4)
        engine.schedule_failure(1, [1])
        engine.schedule_failure(3, [2], "after_commit")
        engine.schedule_failure(5, [0])
        result = engine.run()
        assert len(result.recoveries) == 3
        net = engine.cluster.network
        assert net.queued_node_ids() == set()
        assert not net._queues and not net._delayed

"""Batched columnar transport & sync elision tests (DESIGN.md §10).

Covers the accounting contract (records vs. batches, one header per
physical message), the chaos sub-batch splitting semantics, the
elision differential guarantee, and the hot-path caches (sync-target
precomputation, active-set snapshots).
"""

from __future__ import annotations

import math

import pytest

from repro.api import make_engine
from repro.chaos.controller import ChaosController
from repro.chaos.schedule import FailureSchedule
from repro.cluster.network import Message, MessageKind, Network
from repro.engine.local_graph import LocalGraph
from repro.engine.messages import (
    ActivateBatch,
    ActiveBroadcastBatch,
    GatherBatch,
    RawGatherBatch,
    SyncBatch,
)
from repro.engine.state import MasterMeta, Role, VertexSlot
from repro.graph import generators
from repro.utils.sizing import BYTES_PER_MSG_HEADER, BYTES_PER_VID


def make_net(alive=None):
    alive = set(alive) if alive is not None else {0, 1, 2}
    return Network(is_alive=lambda n: n in alive)


def sync_batch(n: int, full_state: bool = False) -> SyncBatch:
    batch = SyncBatch(full_state)
    for i in range(n):
        batch.append(gid=i, value=float(i), value_nbytes=8,
                     activates=bool(i % 2), self_active=full_state)
    return batch


def run_once(graph, algorithm, partition, **kw):
    kw.setdefault("max_iterations", 30)
    engine = make_engine(graph, algorithm, partition=partition,
                         num_nodes=4, **kw)
    result = engine.run()
    return engine, result


# ---------------------------------------------------------------------------
# accounting: records vs. batches, one header per physical message
# ---------------------------------------------------------------------------


class TestBatchAccounting:
    def test_batch_payload_is_sum_of_record_sizes(self):
        batch = sync_batch(5, full_state=True)
        assert batch.nbytes() == sum(batch.record_nbytes(i)
                                     for i in range(5))
        # Full-state records carry two flag bytes (activates,
        # self-active); plain records one.
        assert batch.record_nbytes(0) == BYTES_PER_VID + 8 + 2
        assert sync_batch(1).record_nbytes(0) == BYTES_PER_VID + 8 + 1

    def test_traffic_stats_count_records_and_batches_separately(self):
        net = make_net()
        net.begin_step()
        batch = sync_batch(3)
        net.send(Message(MessageKind.SYNC, 0, 1, batch, batch.nbytes()))
        totals = net.totals
        assert totals.total_msgs == 3
        assert totals.total_batches == 1
        assert totals.msgs_by_kind[MessageKind.SYNC] == 3
        assert totals.batches_by_kind[MessageKind.SYNC] == 1
        assert totals.total_bytes == batch.nbytes() + BYTES_PER_MSG_HEADER
        assert net.metrics.value("net.sent_msgs") == 3
        assert net.metrics.value("net.sent_batches") == 1
        # The CPU-cost input counts records too.
        assert net.step_msgs_sent_by(0) == 3

    def test_purge_metric_counts_records(self):
        net = make_net()
        net.begin_step()
        batch = sync_batch(4)
        net.send(Message(MessageKind.SYNC, 0, 1, batch, batch.nbytes()))
        assert net.purge_from(0) == 1  # one physical queue entry
        assert net.purged_msgs == 4   # four logical records
        assert net.step_msgs_sent_by(0) == 0
        assert net.step_bytes_sent_by(0) == 0

    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    def test_batched_equals_unbatched_minus_saved_headers(self, partition):
        """Wire bytes: per-record payloads + one header per batch.

        Shipping every record as its own message would pay one header
        per record; batching saves exactly (records - batches) headers
        and changes nothing else.  Checked against what actually went
        through ``Network.send``.
        """
        graph = generators.power_law(80, alpha=2.0, seed=3, name="pl80")
        engine = make_engine(graph, "pagerank", partition=partition,
                             num_nodes=4, sync_elision=False,
                             max_iterations=6)
        net = engine.cluster.network
        sent = []
        send = net.send

        def spy(msg):
            sent.append(msg)
            return send(msg)

        net.send = spy
        result = engine.run()
        totals = net.totals
        records = sum(msg.payload.record_count for msg in sent)
        payload_bytes = sum(
            msg.payload.record_nbytes(i) for msg in sent
            for i in range(msg.payload.record_count))
        assert totals.total_batches == len(sent)
        assert totals.total_msgs == records > len(sent)
        assert result.total_bytes == totals.total_bytes == (
            payload_bytes + BYTES_PER_MSG_HEADER * len(sent))
        per_record = payload_bytes + BYTES_PER_MSG_HEADER * records
        assert per_record - result.total_bytes == (
            (records - len(sent)) * BYTES_PER_MSG_HEADER)


# ---------------------------------------------------------------------------
# chaos: record-level verdicts over batched transport
# ---------------------------------------------------------------------------


class ScriptedInjector:
    """Feeds a fixed per-record verdict sequence to the network."""

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)
        self.calls = 0

    def record(self, msg, index):
        verdict = self.verdicts[self.calls % len(self.verdicts)]
        self.calls += 1
        return verdict

    def message(self, msg):
        return "deliver"


class TestChaosSubBatchSplitting:
    def send_batch(self, verdicts, n=4):
        net = make_net()
        net.begin_step()
        inj = ScriptedInjector(verdicts)
        net.fault_injector = inj.message
        net.record_fault_injector = inj.record
        batch = sync_batch(n)
        net.send(Message(MessageKind.SYNC, 0, 1, batch, batch.nbytes()))
        return net, batch, inj

    def test_one_verdict_per_record(self):
        _, _, inj = self.send_batch(["deliver"], n=4)
        assert inj.calls == 4

    def test_all_deliver_fast_path_keeps_single_batch(self):
        net, batch, _ = self.send_batch(["deliver"], n=4)
        inbox = net.deliver(1)
        assert len(inbox) == 1
        assert inbox[0].payload is batch  # no copy on the fast path
        assert net.totals.total_batches == 1
        assert net.totals.total_msgs == 4

    def test_mixed_verdicts_split_into_sub_batches(self):
        verdicts = ["deliver", "drop", "duplicate", "delay"]
        net, batch, _ = self.send_batch(verdicts, n=4)
        inbox = net.deliver(1)
        # main sub-batch (records 0 and 2), duplicate (record 2), then
        # the delayed sub-batch (record 3) at the back of the inbox.
        assert [m.payload.gids for m in inbox] == [[0, 2], [2], [3]]
        assert net.chaos_dropped_msgs == 1
        assert net.chaos_dropped_bytes == batch.record_nbytes(1)
        assert net.chaos_duplicated_msgs == 1
        assert net.chaos_delayed_msgs == 1
        # Record counters see 4 delivered records (0, 2, 2-dup, 3);
        # each of the 3 sub-batches pays its own header.
        assert net.totals.total_msgs == 4
        assert net.totals.total_batches == 3
        payload = sum(batch.record_nbytes(i) for i in (0, 2, 2, 3))
        assert net.totals.total_bytes == payload \
            + 3 * BYTES_PER_MSG_HEADER

    def test_duplicate_sub_batch_is_independent(self):
        net, _, _ = self.send_batch(["duplicate", "deliver"], n=2)
        main, dup = net.deliver(1)
        main.payload.values[0] = -99.0
        assert dup.payload.values[0] != -99.0

    def test_controller_attach_wires_record_injector(self):
        graph = generators.ring(24)
        engine = make_engine(graph, "pagerank", num_nodes=3,
                             max_iterations=2)
        sched = FailureSchedule(seed=9).with_message_faults(drop=0.05)
        ChaosController(sched).attach(engine)
        net = engine.cluster.network
        assert net.fault_injector is not None
        assert net.record_fault_injector is not None
        engine.run()  # record verdicts drawn without error


# ---------------------------------------------------------------------------
# sync elision
# ---------------------------------------------------------------------------


def _cc_run(partition, **kw):
    # Label min-propagation re-activates vertices through multiple
    # paths without improving their label — the no-op updates the
    # elision rule targets.
    graph = generators.power_law(80, alpha=2.0, seed=3, name="pl80e")
    kw.setdefault("max_iterations", 40)
    return run_once(graph, "cc", partition, **kw)


class TestSyncElision:
    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    def test_differential_no_chaos(self, partition):
        eng_on, res_on = _cc_run(partition)
        eng_off, res_off = _cc_run(partition, sync_elision=False)
        assert res_on.values == res_off.values
        assert eng_on.syncs_elided > 0
        assert eng_off.syncs_elided == 0
        assert res_on.total_messages < res_off.total_messages
        assert res_on.total_bytes < res_off.total_bytes

    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    def test_differential_under_chaos(self, partition):
        """Crash + duplicate/delay faults: elision must not change the
        outcome.  ``drop`` faults are excluded by design — elision
        (like the real systems' TCP transport) assumes syncs are
        reliably delivered; an elision-off run only heals a silent
        drop by accident of its redundant re-sends (DESIGN.md §10)."""
        _, clean = _cc_run(partition)

        def chaotic(sync_elision):
            graph = generators.power_law(80, alpha=2.0, seed=3,
                                         name="pl80e")
            engine = make_engine(graph, "cc", partition=partition,
                                 num_nodes=4, max_iterations=40,
                                 sync_elision=sync_elision)
            sched = (FailureSchedule(seed=11)
                     .crash(3, phase="sync")
                     .with_message_faults(duplicate=0.03, delay=0.03))
            ChaosController(sched).attach(engine)
            return engine, engine.run()

        eng_on, res_on = chaotic(True)
        _, res_off = chaotic(False)
        assert res_on.values == res_off.values == clean.values
        assert eng_on.syncs_elided > 0

    def test_elided_master_still_commits_deactivation(self):
        # CC converges and halts: elided no-op syncs must not keep
        # masters (or their replicas' view of them) active forever.
        engine, result = _cc_run("hash_edge_cut")
        assert result.halted_early
        assert engine.syncs_elided > 0


# ---------------------------------------------------------------------------
# satellite caches: sync targets and active-set snapshots
# ---------------------------------------------------------------------------


class TestSyncTargetCache:
    def test_targets_cached_and_invalidated(self):
        meta = MasterMeta(replica_positions={1: 0, 2: 3, 3: 1},
                          mirror_nodes=[2], master_node=0)
        first = meta.sync_targets()
        assert first == ((1, False), (2, True), (3, False))
        assert meta.sync_targets() is first  # cached
        assert meta.mirror_set == frozenset({2})
        del meta.replica_positions[3]
        meta.mirror_nodes.append(1)
        meta.invalidate_replica_cache()
        assert meta.sync_targets() == ((1, True), (2, True))
        assert meta.mirror_set == frozenset({1, 2})

    def test_recovery_refreshes_targets(self):
        graph = generators.power_law(60, alpha=2.0, seed=7, name="pl60")
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             max_iterations=8, recovery="migration",
                             num_standby=0)
        engine.schedule_failure(2, nodes=1)
        engine.run()
        for node in engine.cluster.alive_workers():
            for slot in engine.local_graphs[node].iter_masters():
                targets = dict(slot.meta.sync_targets())
                assert set(targets) == set(slot.meta.replica_positions)
                for replica, is_mirror in targets.items():
                    assert is_mirror == (replica
                                         in slot.meta.mirror_nodes)


class TestActiveSnapshots:
    def make_slot(self, gid, role=Role.MASTER):
        return VertexSlot(gid=gid, role=role, active=False)

    def test_snapshot_cached_until_mutation(self):
        lg = LocalGraph(0)
        a, b = self.make_slot(1), self.make_slot(2)
        lg.add_slot(a)
        lg.add_slot(b)
        lg.set_active(a, True)
        snap = lg.active_masters_snapshot()
        assert set(snap) == {1}
        assert lg.active_masters_snapshot() is snap
        lg.set_active(b, True)
        assert set(lg.active_masters_snapshot()) == {1, 2}
        lg.remove_slot(2)
        assert set(lg.active_masters_snapshot()) == {1}

    def test_snapshot_invalidated_by_bulk_activity_write(self):
        """Regression (DESIGN.md §11): the vectorized barrier commit
        flips activity through ``set_active_bulk``; a snapshot cached
        before that write must not survive it, or the next superstep's
        compute loop would run on the previous superstep's active set."""
        lg = LocalGraph(0)
        a = self.make_slot(1)
        b = self.make_slot(2)
        m = self.make_slot(3, role=Role.MIRROR)
        pos = [lg.add_slot(s) for s in (a, b, m)]
        lg.set_active(a, True)
        stale_masters = lg.active_masters_snapshot()
        stale_others = lg.active_others_snapshot()
        assert set(stale_masters) == {1} and stale_others == ()
        lg.set_active_bulk(pos, [False, True, True])
        # Both caches were dropped, slots + sets agree with the bulk
        # write, and the gid landed in the set matching its role.
        assert lg.active_masters_snapshot() is not stale_masters
        assert set(lg.active_masters_snapshot()) == {2}
        assert set(lg.active_others_snapshot()) == {3}
        assert (a.active, b.active, m.active) == (False, True, True)
        assert lg.active_masters == {2} and lg.active_others == {3}

    def test_mid_iteration_activation_takes_effect_next_superstep(self):
        """Regression for the snapshot cache: activations committed at
        the barrier must reach the next superstep's compute loop."""
        graph = generators.chain(16, weighted=True, seed=1)
        for partition in ("hash_edge_cut", "hybrid_cut"):
            engine, result = run_once(graph, "sssp", partition,
                                      max_iterations=40)
            # The SSSP frontier advances one hop per superstep purely
            # via activations: every vertex must end up reachable.
            assert all(math.isfinite(v)
                       for v in result.values.values())
            assert result.num_iterations >= 15


# ---------------------------------------------------------------------------
# misc batch payload helpers
# ---------------------------------------------------------------------------


class TestBatchPayloads:
    def test_select_preserves_columns(self):
        batch = sync_batch(4, full_state=True)
        sub = batch.select([1, 3])
        assert sub.gids == [1, 3]
        assert sub.values == [1.0, 3.0]
        assert sub.activates(0) and sub.activates(1)
        assert sub.nbytes() == (batch.record_nbytes(1)
                                + batch.record_nbytes(3))

    def test_clone_is_deep_enough(self):
        batch = sync_batch(2)
        clone = batch.clone()
        clone.values[0] = -1.0
        clone.gids[1] = 99
        assert batch.values[0] == 0.0
        assert batch.gids[1] == 1

    def test_gather_and_activate_batches(self):
        g = GatherBatch()
        g.append(7, 0.5, 8)
        assert g.nbytes() == BYTES_PER_VID + 8
        a = ActivateBatch([1, 2, 3])
        assert a.record_count == 3
        assert a.nbytes() == 3 * BYTES_PER_VID
        assert a.select([2]).gids == [3]
        b = ActiveBroadcastBatch()
        b.append(4, True)
        assert b.nbytes() == b.record_nbytes(0) == BYTES_PER_VID + 1


# ---------------------------------------------------------------------------
# message combining (DESIGN.md §15)
# ---------------------------------------------------------------------------


def raw_gather_batch() -> RawGatherBatch:
    """Three records: a 3-contribution run, a 2-run, a singleton."""
    batch = RawGatherBatch()
    rec = BYTES_PER_VID + 8
    batch.append(10, [0.125, 0.25, 0.5], rec, BYTES_PER_VID + 24)
    batch.append(11, [1.0, 2.0], rec, BYTES_PER_VID + 16)
    batch.append(12, [5.0], rec, BYTES_PER_VID + 8)
    return batch


class TestCombiningPayloads:
    def test_two_tier_accounting(self):
        batch = raw_gather_batch()
        rec = BYTES_PER_VID + 8
        assert batch.record_count == 3           # logical (combined) tier
        assert batch.physical_record_count == 6  # one per contribution
        assert batch.precombine_record_count == 6
        assert batch.nbytes() == 3 * rec
        assert batch.physical_nbytes() == 3 * BYTES_PER_VID + 48
        assert batch.record_nbytes(1) == rec     # logical size, for chaos
        assert [batch.record_folded(i) for i in range(3)] == [3, 2, 1]
        assert batch.contributions_of(1) == [1.0, 2.0]

    def test_empty_group_still_one_physical_record(self):
        batch = RawGatherBatch()
        batch.append(3, [], BYTES_PER_VID + 8, BYTES_PER_VID + 8)
        assert batch.record_count == 1
        assert batch.physical_record_count == 1  # ships the init acc
        assert batch.record_folded(0) == 1

    def test_select_is_group_aware(self):
        batch = raw_gather_batch()
        sub = batch.select([1])
        assert sub.gids == [11]
        assert sub.counts == [2]
        assert sub.contribs == [1.0, 2.0]
        assert sub.nbytes() == batch.record_nbytes(1)
        rest = batch.select([0, 2])
        assert rest.contribs == [0.125, 0.25, 0.5, 5.0]
        clone = batch.clone()
        clone.contribs[0] = -1.0
        assert batch.contribs[0] == 0.125

    def test_gather_folded_column_is_lazy(self):
        g = GatherBatch()
        g.append(1, 0.5, 8)                # no folded info yet
        assert g.folded is None
        assert g.precombine_record_count == 1
        g.append(2, 0.25, 8, folded=4)     # column materializes as 1s
        g.append(3, 0.75, 8)
        assert g.folded == [1, 4, 1]
        assert g.precombine_record_count == 6
        assert g.physical_record_count == 3
        sub = g.select([1, 2])
        assert sub.folded == [4, 1]
        # folded is metadata only: wire bytes are unchanged by it.
        assert g.nbytes() == 3 * (BYTES_PER_VID + 8)

    def test_network_combine_counters(self):
        net = make_net()
        net.begin_step()
        g = GatherBatch()
        g.append(1, 0.5, 8, folded=3)
        g.append(2, 0.25, 8, folded=1)
        net.send(Message(MessageKind.GATHER, 0, 1, g, g.nbytes()))
        assert (net.combine_pre, net.combine_phys) == (4, 2)
        assert net.metrics.value("net.combine.records_pre.gather") == 4
        assert net.metrics.value("net.combine.records_phys.gather") == 2
        raw = raw_gather_batch()
        net.send(Message(MessageKind.GATHER, 0, 1, raw, raw.nbytes()))
        assert (net.combine_pre, net.combine_phys) == (10, 8)
        # Non-gather payloads never touch the combine counters.
        batch = sync_batch(5)
        net.send(Message(MessageKind.SYNC, 0, 1, batch, batch.nbytes()))
        assert (net.combine_pre, net.combine_phys) == (10, 8)
        # The logical tier is what the classic counters keep charging.
        assert net.totals.msgs_by_kind[MessageKind.GATHER] == 5


class TestRawGatherChaos:
    """Record chaos is drawn per *logical* record (satellite: a dropped
    record deducts exactly the contributions that would have folded
    into the lost partial)."""

    def send_raw(self, verdicts):
        net = make_net()
        net.begin_step()
        inj = ScriptedInjector(verdicts)
        net.fault_injector = inj.message
        net.record_fault_injector = inj.record
        batch = raw_gather_batch()
        net.send(Message(MessageKind.GATHER, 0, 1, batch, batch.nbytes()))
        return net, batch, inj

    def test_drop_inside_combined_run(self):
        net, batch, inj = self.send_raw(["deliver", "drop", "deliver"])
        assert inj.calls == 3  # one verdict per logical record, not 6
        (main,) = net.deliver(1)
        # Record 11's whole 2-contribution run vanished with it; the
        # surviving groups are intact and in order.
        assert main.payload.gids == [10, 12]
        assert main.payload.counts == [3, 1]
        assert main.payload.contribs == [0.125, 0.25, 0.5, 5.0]
        assert net.chaos_dropped_msgs == 1
        assert net.chaos_dropped_bytes == batch.record_nbytes(1)

    def test_delay_travels_with_group(self):
        net, _, _ = self.send_raw(["deliver", "delay", "deliver"])
        main, late = net.deliver(1)
        assert main.payload.gids == [10, 12]
        assert late.payload.gids == [11]
        assert late.payload.contribs == [1.0, 2.0]


def _vc_run(partition, combining, chaos=False, **kw):
    graph = generators.power_law(120, alpha=2.0, seed=5, avg_degree=6.0,
                                 name="comb-pl")
    kw.setdefault("max_iterations", 6)
    engine = make_engine(graph, kw.pop("algorithm", "pagerank"),
                         partition=partition, num_nodes=4,
                         combining=combining, **kw)
    if chaos:
        sched = FailureSchedule(seed=13).with_message_faults(drop=0.04,
                                                             delay=0.04)
        ChaosController(sched).attach(engine)
    result = engine.run()
    return engine, result


class TestCombiningDifferential:
    """Combining on/off bit-exactness: values, logical messages, wire
    bytes and simulated time must be identical — only the physical
    record tier (and thus ``combine_ratio``) may differ."""

    @pytest.mark.parametrize("partition", ["random_vertex_cut",
                                           "hybrid_cut"])
    @pytest.mark.parametrize("algorithm,akw", [
        ("pagerank", {}),
        ("sssp", {"algorithm_kwargs": {"source": 0}}),
        ("cc", {}),
        ("degree", {}),
    ])
    def test_on_off_bit_exact(self, partition, algorithm, akw):
        _, on = _vc_run(partition, True, algorithm=algorithm, **akw)
        _, off = _vc_run(partition, False, algorithm=algorithm, **akw)
        assert on.values == off.values
        assert on.total_messages == off.total_messages
        assert on.total_bytes == off.total_bytes
        assert on.total_sim_time_s == off.total_sim_time_s
        assert on.iteration_stats == off.iteration_stats
        assert off.combined_records == 0
        assert off.combine_ratio == 1.0
        if partition == "random_vertex_cut":
            assert on.combine_ratio > 1.5
            assert on.combined_records > 0

    def test_pre_combine_tier_matches_off_mode_physical(self):
        """ON's pre-combine count is exactly what OFF puts on the wire."""
        eng_on, _ = _vc_run("random_vertex_cut", True)
        eng_off, _ = _vc_run("random_vertex_cut", False)
        net_on = eng_on.cluster.network
        net_off = eng_off.cluster.network
        assert net_on.combine_pre == net_off.combine_phys
        assert net_on.combine_phys < net_off.combine_phys

    def test_chaos_record_faults_identical(self):
        """Drop/delay verdicts draw per logical record: the chaos slice
        of the differential must stay bit-exact, because a dropped raw
        record takes exactly the contribution group that would have
        folded into the lost combined partial."""
        eng_on, on = _vc_run("random_vertex_cut", True, chaos=True)
        eng_off, off = _vc_run("random_vertex_cut", False, chaos=True)
        assert on.values == off.values
        assert on.total_messages == off.total_messages
        assert on.total_bytes == off.total_bytes
        net_on, net_off = eng_on.cluster.network, eng_off.cluster.network
        assert net_on.chaos_dropped_msgs == net_off.chaos_dropped_msgs
        assert net_on.chaos_dropped_bytes == net_off.chaos_dropped_bytes
        assert net_on.chaos_delayed_msgs == net_off.chaos_delayed_msgs
        assert net_on.chaos_dropped_msgs > 0  # non-vacuous


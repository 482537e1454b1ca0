"""The vertex-cut superstep at one pass per node, held bit-equal to its
sorting and per-batch oracles (``tests/reference/vertex_cut.py``).

* Activation scatter: ``ArrayNodeProtocol.commit_stage1`` reads the
  remote activation records off the image's static ``act_order`` (on a
  dense frontier its hit mask is the image's ``out_hit``).  It must emit
  what the per-superstep sort emitted: the same keys in the same order,
  gids dtype for dtype, and the same ``next_active``.
* Gather: ``ArrayNodeProtocol.vertex_gather`` orders the remote records
  by the image's static ``gather_order`` and reuses ``in_counts`` when
  every in-edge contributed.  Same outbox, column for column, the same
  ``folded``, ``sizes``, ``nbytes()``, partials and edge count.
* Intake: a node's whole gather inbox and its whole activation inbox
  stage in one call each; they must stage what one call per batch, in
  arrival order, staged.
* Transport: ``Network.send_all`` must leave what one ``Network.send``
  per batch left when it charged every counter per message: queues,
  totals, step counters, every registry counter in its insertion order,
  the combine counters, and — with a fault injector installed — the
  same verdict calls in the same order.

Topologies are random ones (``NodeTopology.from_columns``, tombstones
included) and the real images of edge-cut, hybrid-cut and vertex-cut
engines.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.kernels import CCKernel, PageRankKernel, SSSPKernel
from repro.api import make_engine
from repro.cluster.network import MessageKind, Network
from repro.engine.messages import (ActivateBatch, ActiveBroadcastBatch,
                                   GatherBatch, RawGatherBatch, SyncBatch)
from repro.engine.soa import NodeTopology, sync_columns
from repro.engine.vectorized import ArrayNodeProtocol, _in_edges
from repro.graph import generators
from repro.obs.registry import MetricsRegistry
from tests.reference import vertex_cut as reference

NODES = 4
CASES = [(algorithm, partition)
         for algorithm in ("pagerank", "sssp", "cc")
         for partition in ("hash_edge_cut", "hybrid_cut",
                           "random_vertex_cut")]
IMAGES = ["random", *CASES]
KERNELS = {"pagerank": PageRankKernel(0.85), "sssp": SSSPKernel(0),
           "cc": CCKernel()}


@functools.lru_cache(maxsize=None)
def _engine(algorithm: str, partition: str, combining: bool = True):
    graph = generators.power_law(240, alpha=2.0, seed=5, avg_degree=5.0)
    kwargs = {"source": 0} if algorithm == "sssp" else {}
    return make_engine(graph, algorithm, num_nodes=NODES, ft_level=2,
                       partition=partition, max_iterations=4,
                       combining=combining, algorithm_kwargs=kwargs)


def _random_topology(rng, node: int) -> NodeTopology:
    """A consistent random image: masters here, every other copy's master
    on another node, tombstones holding no edge, in-edges in (position,
    edge) order, and some zero out-degrees."""
    n = int(rng.integers(1, 160))
    occupied = rng.random(n) >= 0.1
    gids = rng.permutation(40 * n)[:n].astype(np.int64)
    gids[~occupied] = -1
    is_master = occupied & (rng.random(n) < 0.4)
    is_mirror = occupied & ~is_master & (rng.random(n) < 0.3)
    others = [k for k in range(NODES) if k != node]
    master_node = np.where(is_master, node, rng.choice(others, n))
    master_node[~occupied] = -1
    live = np.flatnonzero(occupied)
    if live.size:
        in_dst = np.sort(rng.choice(live, 3 * n))
        in_src = rng.choice(live, in_dst.size)
        out_src = np.sort(rng.choice(live, 3 * n))
        out_dst = rng.choice(live, out_src.size)
    else:
        in_dst = in_src = out_src = out_dst = np.zeros(0, dtype=np.int64)
    out_deg = rng.integers(0, 4, n).astype(np.float64)
    return NodeTopology.from_columns(
        gids, occupied, is_master, is_mirror, np.zeros(n, dtype=bool),
        master_node, out_deg, in_src, rng.random(in_dst.size) * 5, in_dst,
        out_src, out_dst, sync_columns(*[np.zeros(0, dtype=np.int64)] * 3))


def _image(image, node: int, rng):
    """``(topology, kernel)`` of a random or a real image."""
    if image == "random":
        return (_random_topology(rng, node),
                KERNELS[rng.choice(sorted(KERNELS))])
    engine = _engine(*image)
    return engine.local_graphs[node].topology(), engine._protocol.kernel


def _values(kernel, n: int, rng) -> np.ndarray:
    if kernel.dtype == np.int64:
        return rng.integers(0, 50, n)
    return np.where(rng.random(n) < 0.2, np.inf, rng.random(n) * 9)


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _mask(rng, n: int, density: float) -> np.ndarray:
    return np.ones(n, dtype=bool) if density == 1.0 \
        else rng.random(n) < density


# -- activation scatter ------------------------------------------------------


def _stage1_state(topo, rng, density: float):
    n = topo.n
    return SimpleNamespace(topo=topo, pend_mask=_mask(rng, n, density),
                           pend_activates=_mask(rng, n, density),
                           next_active=rng.random(n) < 0.2)


def _assert_same_activations(have: dict, want: dict) -> None:
    assert list(have) == list(want)
    for key, batch in want.items():
        assert type(have[key]) is ActivateBatch
        assert _bits(have[key].gids) == _bits(batch.gids), key
        assert have[key].nbytes() == batch.nbytes()


@settings(max_examples=150, deadline=None)
@given(image=st.sampled_from(IMAGES), node=st.integers(0, NODES - 1),
       seed=st.integers(0, 2 ** 32 - 1),
       density=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
def test_activation_scatter_matches_the_sorting_oracle(image, node, seed,
                                                       density):
    topo, _kernel = _image(image, node, np.random.default_rng(seed))
    have = _stage1_state(topo, np.random.default_rng(seed), density)
    want = _stage1_state(topo, np.random.default_rng(seed), density)
    proto = ArrayNodeProtocol(None, is_edge_cut=False)
    _assert_same_activations(proto.commit_stage1(have),
                             reference.commit_stage1(proto, want))
    assert _bits(have.next_active) == _bits(want.next_active)


def test_the_scatter_oracle_sees_dense_frontiers_and_repeats():
    """Non-vacuity: on the vertex-cut images a dense frontier reaches
    remote copies through more out-edges than there are remote records
    to send, and the edge-cut images have no remote copy to activate."""
    for case in CASES:
        records = edges = 0
        for lg in _engine(*case).local_graphs.values():
            topo = lg.topology()
            remote = topo.out_hit & ~topo.is_master
            assert topo.act_order.size == np.count_nonzero(remote)
            records += topo.act_order.size
            edges += np.count_nonzero(remote[topo.out_dst])
        if case[1] == "hash_edge_cut":
            assert records == 0
        else:
            assert edges > records > 0


# -- gather ------------------------------------------------------------------


def _gather_state(topo, kernel, node: int, rng, density: float):
    return SimpleNamespace(node=node, topo=topo, partials=[],
                           values=_values(kernel, topo.n, rng),
                           active=_mask(rng, topo.n, density))


def _assert_same_gathers(have: dict, want: dict) -> None:
    assert list(have) == list(want)
    for key, batch in want.items():
        got = have[key]
        assert type(got) is type(batch), key
        if isinstance(batch, GatherBatch):
            for name in ("gids", "accs", "sizes", "folded"):
                assert _bits(getattr(got, name)) == \
                    _bits(getattr(batch, name)), (key, name)
        else:
            for name in ("gids", "counts", "contribs", "sizes",
                         "phys_sizes"):
                assert getattr(got, name) == getattr(batch, name), \
                    (key, name)
        assert got.nbytes() == batch.nbytes(), key
        assert type(got.nbytes()) is int
        assert got.precombine_record_count == batch.precombine_record_count


def _assert_same_partials(have: list, want: list) -> None:
    """The staged partials as the master fold reads them: each column
    concatenated in staging order."""
    assert bool(have) == bool(want)
    for column in range(3) if want else ():
        assert _bits(np.concatenate([p[column] for p in have])) == \
            _bits(np.concatenate([p[column] for p in want])), column


@settings(max_examples=150, deadline=None)
@given(image=st.sampled_from(IMAGES), node=st.integers(0, NODES - 1),
       seed=st.integers(0, 2 ** 32 - 1),
       density=st.sampled_from([0.0, 0.3, 1.0]), combining=st.booleans())
def test_gather_matches_the_sorting_oracle(image, node, seed, density,
                                           combining):
    topo, kernel = _image(image, node, np.random.default_rng(seed))
    proto = ArrayNodeProtocol(kernel, is_edge_cut=False,
                              combining=combining)
    have = _gather_state(topo, kernel, node, np.random.default_rng(seed),
                         density)
    want = _gather_state(topo, kernel, node, np.random.default_rng(seed),
                         density)
    got, wanted = {}, {}
    edges = proto.vertex_gather(have, got)
    assert type(edges) is int
    assert edges == reference.vertex_gather(proto, want, wanted)
    _assert_same_gathers(got, wanted)
    assert len(have.partials) == len(want.partials)
    for mine, theirs in zip(have.partials, want.partials):
        assert [_bits(col) for col in mine] == [_bits(col) for col in theirs]


def test_the_gather_oracle_sees_every_path():
    """Non-vacuity: on a dense PageRank frontier every in-edge
    contributes (the counts are the image's), a node's remote records
    go to several master nodes, and a sparse frontier selects edges."""
    engine = _engine("pagerank", "random_vertex_cut")
    kernel = engine._protocol.kernel
    for lg in engine.local_graphs.values():
        topo = lg.topology()
        seg, _ = kernel.edge_contrib(topo, lg.values, slice(None))
        assert seg.size == topo.in_dst.size
        assert np.unique(topo.master_node[topo.gather_order]).size > 1
        sparse = np.random.default_rng(0).random(topo.n) < 0.3
        assert isinstance(_in_edges(topo, sparse & topo.has_in), np.ndarray)


# -- whole-inbox intake -------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _superstep(algorithm: str, partition: str, combining: bool) -> dict:
    """Every node's gather and activation batches of a superstep that
    gathers, and activates, along every edge."""
    engine = _engine(algorithm, partition, combining)
    proto = ArrayNodeProtocol(engine._protocol.kernel, engine.is_edge_cut,
                              combining=combining)
    gathers, activations = [], []
    for node, lg in engine.local_graphs.items():
        state = proto.new_state(lg)
        state.active = np.ones(state.topo.n, dtype=bool)
        outbox: dict = {}
        proto.vertex_gather(state, outbox)
        gathers += [(node, dst, batch) for (dst, _), batch in outbox.items()]
        state.pend_mask[:] = True
        state.pend_activates[:] = True
        activations += [(node, dst, batch) for (dst, _), batch in
                        proto.commit_stage1(state).items()]
        state.abort()
    return {"gather": gathers, "activate": activations}


def _arrivals(sent: list, node: int, rng) -> list:
    """The batches ``node`` received, in a random arrival order, some
    duplicated (a chaos retransmission)."""
    inbox = [(src, batch) for src, dst, batch in sent if dst == node]
    inbox += [(src, batch.clone()) for src, batch in inbox
              if rng.random() < 0.3]
    return [inbox[i] for i in rng.permutation(len(inbox))]


@settings(max_examples=60, deadline=None)
@given(partition=st.sampled_from(["hybrid_cut", "random_vertex_cut"]),
       algorithm=st.sampled_from(["pagerank", "sssp", "cc"]),
       combining=st.booleans(), node=st.integers(0, NODES - 1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_inbox_intakes_match_the_per_batch_oracle(partition, algorithm,
                                                  combining, node, seed):
    engine = _engine(algorithm, partition, combining)
    sent = _superstep(algorithm, partition, combining)
    proto = ArrayNodeProtocol(engine._protocol.kernel, engine.is_edge_cut,
                              combining=combining)
    lg = engine.local_graphs[node]
    have, want = proto.new_state(lg), proto.new_state(lg)
    frames = _arrivals(sent["gather"], node, np.random.default_rng(seed))
    have.intake(frames)
    reference.intake(proto, want, frames)
    _assert_same_partials(have.partials, want.partials)
    columns = [batch.gids for _src, batch in
               _arrivals(sent["activate"], node,
                         np.random.default_rng(seed))]
    have.activate(columns)
    reference.activate(want, columns)
    assert _bits(have.next_active) == _bits(want.next_active)


def test_the_intake_oracle_sees_full_inboxes():
    """Non-vacuity: every node receives gather batches from several
    senders, raw ones with combining off, and activation batches."""
    for combining in (True, False):
        sent = _superstep("pagerank", "random_vertex_cut", combining)
        for node in range(NODES):
            senders = {src for src, dst, _ in sent["gather"] if dst == node}
            assert len(senders) > 1
            assert any(dst == node for _, dst, _ in sent["activate"])
        raw = {type(batch) for *_, batch in sent["gather"]}
        assert raw == {GatherBatch if combining else RawGatherBatch}


# -- transport ---------------------------------------------------------------


def _batch(kind: MessageKind, rng):
    """A batch of ``kind`` as the array or the scalar path builds it."""
    k = int(rng.integers(1, 6))
    gids = rng.integers(0, 1000, k)
    scalar = rng.random() < 0.3
    if kind in (MessageKind.SYNC, MessageKind.MIRROR_SYNC):
        full = kind is MessageKind.MIRROR_SYNC
        size = 11 if full else 10
        if scalar:
            batch = SyncBatch(full_state=full)
            for gid in gids.tolist():
                batch.append(gid, gid % 7, 0.5, 2, True, full)
            return batch
        return SyncBatch.from_columns(
            gids, gids % 7, rng.random(k), rng.integers(0, 4, k),
            np.full(k, size), full_state=full,
            nbytes=None if rng.random() < 0.5 else k * size)
    if kind is MessageKind.GATHER:
        if rng.random() < 0.3:
            batch = RawGatherBatch()
            for gid in gids.tolist():
                batch.append(gid, [1.0] * int(rng.integers(0, 3)), 12, 20)
            return batch
        return GatherBatch.from_columns(
            gids, rng.random(k), np.full(k, 12), rng.integers(1, 5, k),
            nbytes=k * 12)
    if kind is MessageKind.ACTIVATE:
        return ActivateBatch(gids if not scalar else gids.tolist())
    batch = ActiveBroadcastBatch()
    for gid in gids.tolist():
        batch.append(gid, bool(gid % 2))
    return batch


def _outbox(src: int, rng) -> dict:
    """Batches of every kind to every node, the sender and a dead node
    among them, in a random order."""
    kinds = [MessageKind.SYNC, MessageKind.MIRROR_SYNC, MessageKind.GATHER,
             MessageKind.ACTIVATE, MessageKind.CONTROL]
    keys = [(dst, kind) for dst in range(NODES + 1) for kind in kinds
            if rng.random() < 0.4]
    return {key: _batch(key[1], rng)
            for key in (keys[i] for i in rng.permutation(len(keys)))}


class _Injector:
    """A seeded verdict stream that logs every call."""

    VERDICTS = ("deliver", "deliver", "drop", "duplicate", "delay")

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.calls: list = []

    def message(self, msg) -> str:
        self.calls.append((msg.src, msg.dst, msg.kind, msg.nbytes))
        return self.VERDICTS[self.rng.integers(len(self.VERDICTS))]

    def record(self, msg, index: int) -> str:
        self.calls.append((msg.src, msg.dst, msg.kind, index))
        return self.VERDICTS[self.rng.integers(len(self.VERDICTS))]


def _network(dead: int, seed: int, faults: bool, records: bool):
    net = Network(is_alive=lambda node: node != dead,
                  metrics=MetricsRegistry())
    injector = _Injector(seed)
    if faults:
        net.fault_injector = injector.message
        if records:
            net.record_fault_injector = injector.record
    return net, injector


def _observed(net, injector) -> dict:
    totals = net.totals
    return {
        "by_kind": [list(totals.msgs_by_kind.items()),
                    list(totals.bytes_by_kind.items()),
                    list(totals.batches_by_kind.items())],
        "totals": (totals.total_msgs, totals.total_bytes,
                   totals.total_batches),
        "step": [[(src, list(row.items())) for src, row in
                  step.items()] for step in (net.step_bytes, net.step_msgs)],
        "counters": list(net.metrics._counters.items()),
        "combine": (net.combine_pre, net.combine_phys),
        "calls": injector.calls,
    }


def _messages(hub) -> list:
    """Each queue in order, a message as what a receiver can see of it."""
    return [(dst, [(m.kind, m.src, m.dst, m.nbytes, type(m.payload),
                    m.payload.record_count) for m in queue])
            for dst, queue in hub._queues.items()]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dead=st.integers(0, NODES),
       faults=st.booleans(), records=st.booleans(),
       rounds=st.integers(1, 3))
def test_send_all_matches_one_send_per_batch(seed, dead, faults, records,
                                             rounds):
    have, have_log = _network(dead, seed, faults, records)
    want, want_log = _network(dead, seed, faults, records)
    rng = np.random.default_rng(seed)
    for _round in range(rounds):
        for net in (have, want):
            net.begin_step()
        for src in rng.permutation(NODES).tolist():
            outbox = _outbox(src, rng)
            have.send_all(src, outbox)
            reference.send_each(want, src, outbox)
    assert _observed(have, have_log) == _observed(want, want_log)
    for hub in ("_queues", "_delayed"):
        assert _messages(getattr(have, hub)) == _messages(getattr(want, hub))


def test_the_transport_oracle_sees_drops_and_self_sends():
    """Non-vacuity: the outboxes above reach a dead node (counted as
    dropped) and the sender itself (queued, not counted)."""
    net, _ = _network(dead=NODES, seed=3, faults=False, records=False)
    rng = np.random.default_rng(3)
    for src in range(NODES):
        net.send_all(src, _outbox(src, rng))
    assert net.metrics.value("net.dropped_msgs") > 0
    assert any(m.src == m.dst for queue in net._queues._queues.values()
               for m in queue)
    assert net.combine_pre > net.combine_phys > 0


# -- read-only image columns -------------------------------------------------


@pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
def test_shared_image_columns_are_read_only(partition):
    """``edge_fold`` hands out the image's ``has_in`` itself on a dense
    frontier: writing through it, or any static mask or order of the
    image, raises instead of corrupting the image."""
    engine = _engine("pagerank", partition)
    topo = engine.local_graphs[1].topology()
    kernel = engine._protocol.kernel
    _acc, has = kernel.edge_fold(topo, engine.local_graphs[1].values,
                                 slice(None))
    assert has is topo.has_in
    with pytest.raises(ValueError, match="read-only"):
        has[0] = not has[0]
    for name in ("has_in", "in_counts", "has_out", "out_hit", "act_order",
                 "gather_order"):
        column = getattr(topo, name)
        with pytest.raises(ValueError, match="read-only"):
            column[:1] = 0

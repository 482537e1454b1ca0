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
from tests.test_sync_columns import _assert_same_outbox, _ctx

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
                           gather_plan=None, layouts={},
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


# -- dense gather plan and receive layouts ------------------------------------


def _dead_source_topology(node: int) -> NodeTopology:
    """A random image where some in-edge's source has no out-edges, so
    PageRank's contributions skip it (no ``in_src_live``)."""
    for seed in range(100):
        topo = _random_topology(np.random.default_rng(seed), node)
        if (topo.out_deg_f[topo.in_src] == 0).any() \
                and (topo.has_in & topo.is_master).any():
            return topo
    raise AssertionError("no image with a dead source")


@pytest.mark.parametrize("live", [True, False])
def test_the_dense_gather_plan_matches_the_general_gather(live):
    """A dense combined PageRank gather ships the state's plan, built
    once, equal to the sorting gather; without ``in_src_live`` some
    in-edge contributes nothing and the general path runs."""
    node = 1
    kernel = KERNELS["pagerank"]
    proto = ArrayNodeProtocol(kernel, is_edge_cut=False)
    topo = (_engine("pagerank", "hybrid_cut").local_graphs[node].topology()
            if live else _dead_source_topology(node))
    assert topo.in_src_live == live
    have = _gather_state(topo, kernel, node, np.random.default_rng(3), 1.0)
    plans = []
    for seed in (3, 4):
        want = _gather_state(topo, kernel, node,
                             np.random.default_rng(seed), 1.0)
        have.values = want.values.copy()
        got, wanted = {}, {}
        assert proto.vertex_gather(have, got) == \
            reference.vertex_gather(proto, want, wanted)
        _assert_same_gathers(got, wanted)
        _assert_same_partials(have.partials, want.partials)
        plans.append(have.gather_plan)
    if live:
        assert plans[0] is not None and plans[1] is plans[0]
        assert got and all(not batch.gids.flags.writeable
                           and not batch.folded.flags.writeable
                           for batch in got.values())
    else:
        assert plans == [None, None]


def _exchange(states: dict, proto, vary: bool) -> dict:
    """One gather phase over ``states`` (node -> state): each node's
    gather frames, in sender order."""
    frames: dict = {node: [] for node in states}
    for node, state in states.items():
        state.partials = []
        outbox: dict = {}
        if vary:
            proto.vertex_gather(state, outbox)
        else:
            reference.vertex_gather(proto, state, outbox)
        for (dst, _kind), batch in outbox.items():
            frames[dst].append((node, batch))
    return frames


@pytest.mark.parametrize("algorithm", ["pagerank", "sssp", "cc"])
@pytest.mark.parametrize("partition", ["hybrid_cut", "random_vertex_cut"])
def test_intake_and_fold_match_their_sorting_oracles_superstep_after_superstep(
        partition, algorithm, monkeypatch):
    """Every node gathers, takes its gather inbox and folds for three
    supersteps with every copy active; the second reuses the first's
    layouts.  In the third a master that received partials stops
    computing between the gather and the fold, so the fold drops its
    partials.  Each fold emits what the sorting oracle emits, and hands
    ``apply`` the same accumulators and ``has`` mask."""
    engine = _engine(algorithm, partition)
    kernel = engine._protocol.kernel
    proto = ArrayNodeProtocol(kernel, is_edge_cut=False)
    applied: list = []
    apply = kernel.apply

    def spy(gids, old, acc, has, ctx):
        applied.append((_bits(acc), _bits(has)))
        return apply(gids, old, acc, has, ctx)

    monkeypatch.setattr(kernel, "apply", spy)
    have = {node: proto.new_state(lg)
            for node, lg in engine.local_graphs.items()}
    want = {node: proto.new_state(lg)
            for node, lg in engine.local_graphs.items()}
    rng = np.random.default_rng(11)
    layouts: dict = {}
    for step in range(3):
        for node in have:
            values = _values(kernel, have[node].topo.n, rng)
            for side in (have, want):
                side[node].abort()
                side[node].values = values.copy()
                side[node].active = np.ones(side[node].topo.n, dtype=bool)
        have_frames = _exchange(have, proto, vary=True)
        want_frames = _exchange(want, proto, vary=False)
        for node in have:
            have[node].intake(have_frames[node])
            reference.intake(proto, want[node], want_frames[node])
            if step == 2 and want[node].partials:
                pos = np.concatenate([p for p, _, _ in want[node].partials])
                for side in (have, want):
                    side[node].active[pos[0]] = False
            got, wanted = {}, {}
            ctx = _ctx(engine, step)
            assert proto.master_fold_apply(have[node], ctx, got) == \
                reference.master_fold_apply(proto, want[node], ctx, wanted)
            assert applied[-2] == applied[-1], (step, node)
            _assert_same_outbox(got, wanted)
            for name in ("pend_mask", "pend_values", "pend_activates",
                         "pend_self_active"):
                assert _bits(getattr(have[node], name)) == \
                    _bits(getattr(want[node], name)), (step, node, name)
            held = {name: layout[2]
                    for name, layout in have[node].layouts.items()}
            if step == 0:
                # Every sender ships its static plan: the layouts of
                # the exchanges the node took part in are kept.
                assert set(held) == {"fold", *["intake"] * bool(
                    have_frames[node])}, node
                layouts[node] = held
            else:
                # Hits, and a dropped master does not replace the fold's.
                assert set(held) == set(layouts[node]), (step, node)
                assert all(held[name] is layouts[node][name]
                           for name in held), (step, node)
    assert any(len(held) == 2 for held in layouts.values())


def test_a_writeable_gather_column_never_enters_a_layout():
    """Cloned gather batches (fresh, writeable gid columns) take no
    intake layout, and their partials no fold layout."""
    engine = _engine("pagerank", "hybrid_cut")
    proto = ArrayNodeProtocol(engine._protocol.kernel, is_edge_cut=False)
    sent = _superstep("pagerank", "hybrid_cut", True)
    for node, lg in engine.local_graphs.items():
        state = proto.new_state(lg)
        state.intake([(src, batch.clone()) for src, dst, batch
                      in sent["gather"] if dst == node])
        state.fold_apply(_ctx(engine, 0), {})
        assert state.layouts == {}, node


@pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut",
                                       "random_vertex_cut"])
def test_a_steady_run_builds_each_layout_once_and_hits_it_after(
        partition, monkeypatch):
    """Non-vacuity: on a steady PageRank run every node stores each of
    its layouts on its first superstep and finds it on every later one,
    and builds its dense gather plan once."""
    from repro.engine import vectorized

    calls: list = []
    recall = vectorized._recall

    def spy(st, exchange, keys, shape):
        layout = recall(st, exchange, keys, shape)
        calls.append((st.node, exchange, layout is not None))
        return layout

    plans: list = []

    class CountedPlan(vectorized._GatherPlan):
        def __init__(self, topo, kernel, node):
            plans.append(node)
            super().__init__(topo, kernel, node)

    monkeypatch.setattr(vectorized, "_recall", spy)
    monkeypatch.setattr(vectorized, "_GatherPlan", CountedPlan)
    graph = generators.power_law(240, alpha=2.0, seed=5, avg_degree=5.0)
    iterations = 5
    engine = make_engine(graph, "pagerank", num_nodes=NODES, ft_level=2,
                         partition=partition, max_iterations=iterations)
    engine.run()
    exchanges = ("stage",) if engine.is_edge_cut else (
        "stage", "intake", "fold")
    steady = [False] + [True] * (iterations - 1)
    for exchange in exchanges:
        seen = [[hit for n, name, hit in calls
                 if n == node and name == exchange] for node in range(NODES)]
        # A node no gather reaches takes no intake.
        assert all(hits in ([], steady) for hits in seen), exchange
        assert steady in seen, exchange
    assert sorted(plans) == ([] if engine.is_edge_cut
                             else list(range(NODES)))


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

"""The steady superstep's sync path as whole columns, held bit-equal to
its per-key and per-batch oracles (``tests/reference/sync.py``).

* Build: ``ArrayNodeProtocol._master_compute`` picks every sync record
  of a node in one pass over the flat plan (``NodeTopology.sync_pos``)
  and slices each ``(dst, kind)`` batch out of the gathered columns.  It
  must emit the outbox the per-key walk emits — the same keys in the
  same order, column for column and dtype for dtype — the same
  ``elided`` count and the same pending columns.
* Dense build: when every master computes and nothing is elided the
  batches come off the image's static plan (``_DensePlan``) with only
  the values (and flags, unless constant) gathered.  It must emit the
  same outbox as the per-key walk, and a shipped batch's plan-backed
  columns are read-only.
* Plan: ``repro.engine.soa.sync_columns`` splits a node's (master,
  copy) rows by ``(node, kind)`` key in one stable counting pass; it
  must equal one mask per key, keys in first-appearance order.
* Staging: ``ArrayNodeProtocol.stage_inbox`` stages a node's whole inbox
  with one gid check and one scatter per column.  It must stage what one
  per-batch call per batch in arrival order stages, through duplicated
  and split sub-batches and repeated positions carrying other values
  (the last record wins), and a stale batch anywhere in the inbox must
  raise with nothing staged.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import make_engine
from repro.engine.soa import sync_columns
from repro.engine.vectorized import ArrayNodeProtocol, _in_edges
from repro.engine.vertex_program import ApplyContext
from repro.errors import EngineError
from repro.graph import generators
from tests.reference import sync as reference

CASES = [(algorithm, partition)
         for algorithm in ("pagerank", "sssp", "cc")
         for partition in ("hash_edge_cut", "hybrid_cut")]
NODES = 4
PENDING = ("pend_mask", "pend_values", "pend_activates", "pend_self_active")
COLUMNS = ("gids", "positions", "values", "flags", "sizes")


@functools.lru_cache(maxsize=None)
def _engine(algorithm: str, partition: str):
    graph = generators.power_law(240, alpha=2.0, seed=5, avg_degree=5.0)
    kwargs = {"source": 0} if algorithm == "sssp" else {}
    return make_engine(graph, algorithm, num_nodes=NODES, ft_level=2,
                       partition=partition, max_iterations=4,
                       algorithm_kwargs=kwargs)


def _ctx(engine, iteration: int) -> ApplyContext:
    return ApplyContext(iteration=iteration,
                        num_vertices=engine.graph.num_vertices,
                        num_edges=engine.graph.num_edges)


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _assert_same_pending(have, want) -> None:
    for name in PENDING:
        assert _bits(getattr(have, name)) == _bits(getattr(want, name)), name


def _assert_same_outbox(have: dict, want: dict) -> None:
    assert list(have) == list(want)
    for key, batch in want.items():
        got = have[key]
        assert got.full_state == batch.full_state, key
        assert got.edge_updates is None and batch.edge_updates is None
        for name in COLUMNS:
            assert _bits(getattr(got, name)) == _bits(getattr(batch, name)), \
                (key, name)
        assert got.nbytes() == batch.nbytes(), key


def _randomised_state(proto, lg, rng, values):
    """A state over ``lg``'s image with its own copies of the columns
    the sync build reads, so nothing is written back to the engine."""
    state = proto.new_state(lg)
    n = state.topo.n
    state.values = values.copy()
    state.last_activates = rng.random(n) < 0.5
    state.mirror_self_active = rng.random(n) < 0.5
    return state


@settings(max_examples=200, deadline=None)
@given(to=st.lists(st.integers(0, 2 * 9 - 1), max_size=60),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_flat_plan_matches_the_per_key_masks(to, seed):
    """``sync_columns`` gives the keys, rows and peers the per-key masks
    give, in the same order and dtype."""
    rng = np.random.default_rng(seed)
    to = np.array(to, dtype=np.int64)
    master_pos = rng.integers(0, 500, to.size)
    peer_pos = rng.integers(0, 500, to.size)
    keys, ptr, pos, peer = sync_columns(to, master_pos, peer_pos)
    plan, want_peer = reference.sync_columns(to, master_pos, peer_pos)
    assert keys == list(plan)
    bounds = ptr.tolist()
    assert bounds[0] == 0 and bounds[-1] == to.size
    for key, lo, hi in zip(keys, bounds, bounds[1:]):
        assert _bits(pos[lo:hi]) == _bits(plan[key]), key
    assert _bits(peer) == _bits(want_peer)
    assert _bits(ptr) == _bits(np.cumsum(
        [0, *map(len, plan.values())], dtype=np.int64))


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(CASES), node=st.integers(0, NODES - 1),
       seed=st.integers(0, 2 ** 32 - 1),
       density=st.sampled_from([0.0, 0.2, 0.7, 1.0]),
       selfish=st.booleans(), elision=st.booleans(),
       iteration=st.integers(0, 2))
def test_sync_build_matches_the_per_key_oracle(case, node, seed, density,
                                               selfish, elision, iteration):
    engine = _engine(*case)
    kernel = engine._protocol.kernel
    proto = ArrayNodeProtocol(kernel, engine.is_edge_cut,
                              sync_elision=elision, selfish_opt=selfish)
    lg = engine.local_graphs[node]
    rng = np.random.default_rng(seed)
    topo = lg.topology()
    n = topo.n
    # Values with ties: half the positions keep their old value, so the
    # elision filter has records to drop under every kernel.
    if kernel.dtype == np.int64:
        values = rng.integers(0, 50, n)
    else:
        values = np.where(rng.random(n) < 0.2, np.inf, rng.random(n) * 9)
    sel = (rng.random(n) < density) & topo.is_master
    have = _randomised_state(proto, lg, np.random.default_rng(seed), values)
    want = _randomised_state(proto, lg, np.random.default_rng(seed), values)
    acc, has = kernel.edge_fold(topo, values, _in_edges(topo, sel))
    same = rng.random(n) < 0.5
    acc = np.where(same, values, acc).astype(acc.dtype)
    has = has | same
    ctx = _ctx(engine, iteration)
    got, wanted = {}, {}
    elided = proto._master_compute(have, sel, acc, has, ctx, got)
    assert type(elided) is int
    assert elided == reference.master_compute(proto, want, sel, acc, has,
                                              ctx, wanted)
    _assert_same_outbox(got, wanted)
    _assert_same_pending(have, want)


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(CASES), node=st.integers(0, NODES - 1),
       seed=st.integers(0, 2 ** 32 - 1), selfish=st.booleans(),
       elision=st.booleans(), iteration=st.integers(0, 2))
def test_the_dense_build_matches_the_per_key_oracle(case, node, seed,
                                                    selfish, elision,
                                                    iteration):
    """Every master computes: PageRank ships the plan's constant flags
    (elision on or off: every master activates); SSSP and CC, with
    elision off, gather theirs.  Both take the dense plan, and the
    outbox, ``elided`` and the pending columns equal the per-key walk's."""
    engine = _engine(*case)
    kernel = engine._protocol.kernel
    pagerank = case[0] == "pagerank"
    proto = ArrayNodeProtocol(kernel, engine.is_edge_cut,
                              sync_elision=elision and pagerank,
                              selfish_opt=selfish)
    lg = engine.local_graphs[node]
    rng = np.random.default_rng(seed)
    topo = lg.topology()
    values = rng.integers(0, 50, topo.n) if kernel.dtype == np.int64 \
        else rng.random(topo.n) * 9
    have = _randomised_state(proto, lg, np.random.default_rng(seed), values)
    want = _randomised_state(proto, lg, np.random.default_rng(seed), values)
    sel = topo.is_master.copy()
    acc, has = kernel.edge_fold(topo, values, slice(None))
    ctx = _ctx(engine, iteration)
    got, wanted = {}, {}
    assert proto._master_compute(have, sel, acc, has, ctx, got) == 0
    assert reference.master_compute(proto, want, sel, acc, has, ctx,
                                    wanted) == 0
    _assert_same_outbox(got, wanted)
    _assert_same_pending(have, want)
    # Non-vacuity: the plan was taken, and its constant columns are
    # zero-stride views (the flags exactly when every master activates
    # and stays active: PageRank).
    assert have.plan is not None and have.plan.selfish == selfish
    assert got
    for batch in got.values():
        assert batch.sizes.strides == (0,)
        assert (batch.flags.strides == (0,)) == pagerank


@pytest.mark.parametrize("case", CASES)
def test_a_shipped_batch_s_plan_columns_are_read_only(case):
    """A batch off the dense plan shares the plan's gids, receiver
    positions, sizes (and PageRank's flags) with every later superstep:
    writing into any of them raises instead of corrupting the next."""
    engine = _engine(*case)
    kernel = engine._protocol.kernel
    proto = ArrayNodeProtocol(kernel, engine.is_edge_cut,
                              sync_elision=False)
    for lg in engine.local_graphs.values():
        state = proto.new_state(lg)
        topo = state.topo
        acc, has = kernel.edge_fold(topo, state.values, slice(None))
        outbox: dict = {}
        proto._master_compute(state, topo.is_master.copy(), acc, has,
                              _ctx(engine, 1), outbox)
        assert outbox and state.plan is not None
        for batch in outbox.values():
            names = ["gids", "positions", "sizes"]
            if batch.flags.strides == (0,):
                names.append("flags")
            for name in names:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(batch, name)[0] = 0


def test_the_build_oracle_sees_every_filter():
    """Non-vacuity of the property above: the plan has both kinds, some
    planned copies are selfish, and elision drops records."""
    engine = _engine("sssp", "hybrid_cut")
    kinds, selfish = set(), 0
    for lg in engine.local_graphs.values():
        topo = lg.topology()
        kinds |= {mirror for _dst, mirror in topo.sync_plan}
        selfish += int(topo.selfish[topo.sync_pos].sum())
    assert kinds == {False, True}
    assert selfish > 0
    fresh = make_engine(engine.graph, "sssp", num_nodes=NODES, ft_level=2,
                        partition="hybrid_cut", max_iterations=4,
                        algorithm_kwargs={"source": 0})
    fresh.run()
    assert fresh.syncs_elided > 0


def test_the_plan_is_held_once():
    """``sync_plan[key]`` is a view of the flat ``sync_pos``, bounded by
    ``sync_ptr``; ``sync_mirror`` is each entry's key kind."""
    for case in CASES:
        for lg in _engine(*case).local_graphs.values():
            topo = lg.topology()
            ptr = topo.sync_ptr.tolist()
            assert ptr[0] == 0 and ptr[-1] == topo.sync_pos.size
            for (key, positions), b, e in zip(topo.sync_plan.items(),
                                              ptr, ptr[1:]):
                assert positions.base is topo.sync_pos
                assert np.shares_memory(positions, topo.sync_pos)
                assert np.array_equal(positions, topo.sync_pos[b:e])
                assert (topo.sync_mirror[b:e] == key[1]).all()


@functools.lru_cache(maxsize=None)
def _inboxes(algorithm: str, partition: str) -> dict:
    """Every node's sync batches, by receiving node, from a superstep
    that computes every master (without elision)."""
    engine = _engine(algorithm, partition)
    kernel = engine._protocol.kernel
    proto = ArrayNodeProtocol(kernel, engine.is_edge_cut,
                              sync_elision=False)
    inboxes: dict[int, list] = {node: [] for node in range(NODES)}
    for lg in engine.local_graphs.values():
        state = proto.new_state(lg)
        topo = state.topo
        acc, has = kernel.edge_fold(topo, state.values, slice(None))
        outbox: dict = {}
        proto._master_compute(state, topo.is_master, acc, has,
                              _ctx(engine, 0), outbox)
        for (dst, _kind), batch in outbox.items():
            inboxes[dst].append(batch)
    return inboxes


def _shaped_inbox(batches: list, rng) -> list:
    """The batches in a random arrival order, some split into
    sub-batches, some duplicated, and some repeated with other values
    and flags (a later copy of a position must win)."""
    inbox = []
    for batch in batches:
        cut = int(rng.integers(0, batch.record_count + 1))
        parts = [batch.select(range(cut)),
                 batch.select(range(cut, batch.record_count))] \
            if rng.random() < 0.5 else [batch]
        inbox.extend(part for part in parts if part.record_count)
    for batch in list(inbox):
        if rng.random() < 0.3:
            inbox.append(batch.clone())
        if rng.random() < 0.3:
            other = batch.clone()
            other.values = other.values + 1
            other.flags = other.flags ^ 3
            inbox.append(other)
    return [inbox[i] for i in rng.permutation(len(inbox))]


def _fresh(engine, node):
    return engine._protocol.new_state(engine.local_graphs[node])


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(CASES), node=st.integers(0, NODES - 1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_inbox_staging_matches_the_per_batch_oracle(case, node, seed):
    engine = _engine(*case)
    inbox = _shaped_inbox(_inboxes(*case)[node], np.random.default_rng(seed))
    have, want = _fresh(engine, node), _fresh(engine, node)
    have.stage(inbox)
    reference.stage_inbox(want, inbox)
    _assert_same_pending(have, want)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CASES), node=st.integers(0, NODES - 1),
       seed=st.integers(0, 2 ** 32 - 1), where=st.floats(0, 1),
       out_of_range=st.booleans())
def test_a_stale_batch_anywhere_stages_nothing(case, node, seed, where,
                                               out_of_range):
    engine = _engine(*case)
    inbox = _shaped_inbox(_inboxes(*case)[node], np.random.default_rng(seed))
    state = _fresh(engine, node)
    at = min(int(where * len(inbox)), len(inbox) - 1)
    stale = inbox[at].clone()
    if out_of_range:
        stale.positions = np.r_[stale.positions[:-1], state.topo.n + 4]
    else:
        stale.gids = stale.gids + 1
    inbox[at] = stale
    untouched = _fresh(engine, node)
    with pytest.raises(EngineError, match="positions"):
        state.stage(inbox)
    _assert_same_pending(state, untouched)


def test_the_staging_oracle_sees_repeats_of_both_kinds():
    """Non-vacuity: every case's inboxes carry plain and full-state
    batches, and a shaped inbox repeats positions."""
    for case in CASES:
        inboxes = _inboxes(*case)
        assert {batch.full_state for batches in inboxes.values()
                for batch in batches} == {False, True}, case
        inbox = _shaped_inbox(inboxes[0], np.random.default_rng(1))
        positions = np.concatenate([batch.positions for batch in inbox])
        assert np.unique(positions).size < positions.size, case

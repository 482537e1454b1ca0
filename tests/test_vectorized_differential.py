"""Scalar-vs-vectorized differential oracle (DESIGN.md §11).

The vectorized structure-of-arrays path promises *bit-for-bit* equality
with the per-vertex scalar loop — not approximate convergence.  Every
case here runs the same job twice, once with ``vectorized=False`` and
once with ``vectorized=True``, and asserts that everything observable
matches exactly: committed values, per-node activity sets, logical
message and wire-byte counters, elision counts, simulated time, and the
full per-iteration stats.

The sweep covers all four kernel-backed algorithms × both partitioning
families × ft_level 0–2 (level 0 runs with fault tolerance disabled
entirely, levels 1–2 under replication, which adds mirrors and the
full-state MIRROR_SYNC flag bits to the hot path).
"""

from __future__ import annotations

import pytest

from repro.api import make_engine
from tests.reference.activity import active_gids

ALGORITHMS = ["pagerank", "degree", "sssp", "cc"]
PARTITIONS = ["hash_edge_cut", "hybrid_cut"]
FT_LEVELS = [0, 1, 2]

MAX_ITERATIONS = 8
NUM_NODES = 6


def _kwargs(algorithm: str, partition: str, ft_level: int) -> dict:
    kw = dict(num_nodes=NUM_NODES, partition=partition,
              max_iterations=MAX_ITERATIONS)
    if ft_level == 0:
        kw["ft_mode"] = "none"
    else:
        kw.update(ft_mode="replication", ft_level=ft_level)
    if algorithm == "sssp":
        kw["algorithm_kwargs"] = {"source": 0}
    return kw


def _run(graph, algorithm: str, vectorized: bool, kw: dict):
    engine = make_engine(graph, algorithm, vectorized=vectorized, **kw)
    # Non-vacuity: the flag must actually select the intended path.
    if vectorized:
        assert engine._vec is not None, \
            "vectorized=True did not install the array executor"
    else:
        assert engine._vec is None, \
            "vectorized=False must keep the scalar loop"
    result = engine.run()
    observed = {
        "values": engine.values(),
        "active": {node: tuple(map(sorted, active_gids(lg)))
                   for node, lg in engine.local_graphs.items()},
        "slots": {node: [(s.gid, s.value, s.active, s.last_activates,
                          s.mirror_self_active, s.last_update_iter)
                         for s in lg.iter_slots()]
                  for node, lg in engine.local_graphs.items()},
        "syncs_elided": engine.syncs_elided,
        "num_iterations": result.num_iterations,
        "total_messages": result.total_messages,
        "total_bytes": result.total_bytes,
        "total_sim_time_s": result.total_sim_time_s,
        "halted_early": result.halted_early,
        "iteration_stats": result.iteration_stats,
    }
    return observed


@pytest.mark.parametrize("ft_level", FT_LEVELS)
@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_scalar_vectorized_identical(chaos_graph, algorithm, partition,
                                     ft_level):
    kw = _kwargs(algorithm, partition, ft_level)
    scalar = _run(chaos_graph, algorithm, False, kw)
    vectorized = _run(chaos_graph, algorithm, True, kw)
    for field in scalar:
        assert vectorized[field] == scalar[field], \
            (f"{algorithm}/{partition}/ft{ft_level}: vectorized path "
             f"diverged on {field}")


@pytest.mark.parametrize("partition", PARTITIONS)
def test_elision_disabled_identical(chaos_graph, partition):
    """Sync elision off exercises the unfiltered sync fan-out."""
    kw = _kwargs("sssp", partition, 1)
    kw["sync_elision"] = False
    scalar = _run(chaos_graph, "sssp", False, kw)
    vectorized = _run(chaos_graph, "sssp", True, kw)
    for field in scalar:
        assert vectorized[field] == scalar[field], \
            f"sssp/{partition}/no-elision: diverged on {field}"


VC_PARTITIONS = ["random_vertex_cut", "hybrid_cut"]


@pytest.mark.parametrize("combining", [True, False])
@pytest.mark.parametrize("partition", VC_PARTITIONS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_combining_modes_identical(chaos_graph, algorithm, partition,
                                   combining):
    """The combining layer (DESIGN.md §15) in both wire formats: the
    vectorized vertex-cut gather — combined partials with folded
    counts, or raw contribution groups — must stay bit-equal to the
    scalar protocol's."""
    kw = _kwargs(algorithm, partition, 1)
    kw["combining"] = combining
    scalar = _run(chaos_graph, algorithm, False, kw)
    vectorized = _run(chaos_graph, algorithm, True, kw)
    for field in scalar:
        assert vectorized[field] == scalar[field], \
            (f"{algorithm}/{partition}/combining={combining}: "
             f"vectorized path diverged on {field}")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_combining_off_matches_on_vectorized(chaos_graph, algorithm):
    """Within the vectorized path, the raw (combining-off) wire format
    is observationally identical to the combined one — values, logical
    messages, bytes and simulated time."""
    kw = _kwargs(algorithm, "random_vertex_cut", 1)
    on = _run(chaos_graph, algorithm, True, {**kw, "combining": True})
    off = _run(chaos_graph, algorithm, True, {**kw, "combining": False})
    for field in on:
        assert off[field] == on[field], \
            f"{algorithm}: combining=False diverged on {field}"


def test_custom_program_falls_back_to_scalar(chaos_graph):
    """A VertexProgram without a kernel() must run the scalar loop even
    with vectorized=True — the fallback rule of DESIGN.md §11."""
    from repro.algorithms.pagerank import PageRank

    class CustomPageRank(PageRank):
        def kernel(self):
            return None

    engine = make_engine(chaos_graph, CustomPageRank(), num_nodes=NUM_NODES,
                         max_iterations=4, vectorized=True)
    assert engine._vec is None
    reference = make_engine(chaos_graph, "pagerank", num_nodes=NUM_NODES,
                            max_iterations=4, vectorized=False)
    assert engine.run().values == reference.run().values


# -- the per-node protocols, driven by hand ---------------------------------
#
# No ``Engine.run`` and no ``Network``: the engine below is only the
# loader of the per-rank local graphs.  Both protocols run the same three
# supersteps over two partitions through one hand-written driver of the
# per-node round interface (DESIGN.md §12) — the ``src/`` objects both
# backends drive — and everything either of them hands to a backend is
# diffed: compute counts, every batch, the activation signals and the
# committed state.


def _scalar_states(engine):
    from repro.exec.protocol import NodeProtocol
    proto = NodeProtocol(engine.program, engine.is_edge_cut)
    return {rank: proto.new_state(lg)
            for rank, lg in engine.local_graphs.items()}


def _array_states(engine):
    from repro.engine.vectorized import ArrayNodeProtocol
    proto = ArrayNodeProtocol(engine.program.kernel(), engine.is_edge_cut)
    return {rank: proto.new_state(lg)
            for rank, lg in engine.local_graphs.items()}


def _records(batch):
    """A batch as an order-free record set: the order of the records
    within a batch is not part of the contract."""
    import numpy as np

    from repro.exec.serialize import encode_batch
    enc = encode_batch(batch)
    header = enc[:6]
    rest = [col.tolist() if isinstance(col, np.ndarray) else col
            for col in enc[6:]]
    columns = [col for col in rest if isinstance(col, list)]
    assert len({len(col) for col in columns}) == 1  # one entry per record
    return header + tuple(c for c in rest if not isinstance(c, list)) \
        + (sorted(zip(*columns)),)


def _drive_by_hand(engine, states, supersteps, probe=lambda when: None):
    """One backend-less driver for either protocol's per-node objects;
    returns what each superstep produced.  ``probe`` is called around
    commit stage 1: with ``"computed"`` before it, with ``"staged"``
    once it and the activation intake are done."""
    from repro.cluster.network import MessageKind
    from repro.engine.vertex_program import ApplyContext

    ranks = sorted(states)
    pending = {rank: set() for rank in ranks}
    log = []
    for it in range(supersteps):
        ctx = ApplyContext(iteration=it,
                           num_vertices=engine.graph.num_vertices,
                           num_edges=engine.graph.num_edges)
        sent, counts = {}, {}

        def ship(src, outbox):
            sent.update({(src, dst, kind.value): batch
                         for (dst, kind), batch in outbox.items()})
            return outbox

        if engine.is_edge_cut:
            for rank in ranks:
                outbox = {}
                counts[rank] = states[rank].compute(ctx, outbox)
                ship(rank, outbox)
        else:
            for rank in ranks:
                outbox = ship(rank,
                              states[rank].broadcast_build(pending[rank]))
                pending[rank] = set()
                for (dst, _kind), batch in outbox.items():
                    states[dst].broadcast_apply(batch)
            edges, gathers = {}, {}
            for rank in ranks:
                gathers[rank] = {}
                edges[rank] = states[rank].gather(ctx, gathers[rank])
            frames = {rank: [] for rank in ranks}
            for rank in ranks:
                for (dst, _kind), batch in ship(rank,
                                                gathers[rank]).items():
                    frames[dst].append((rank, batch))
            for rank in ranks:
                states[rank].intake(frames[rank])
            for rank in ranks:
                outbox = {}
                counts[rank] = (edges[rank],
                                *states[rank].fold_apply(ctx, outbox))
                ship(rank, outbox)
        inboxes = {}
        for (_src, dst, kind), batch in sent.items():
            if kind in (MessageKind.SYNC.value,
                        MessageKind.MIRROR_SYNC.value):
                inboxes.setdefault(dst, []).append(batch)
        for dst, inbox in inboxes.items():
            states[dst].stage(inbox)
        probe("computed")
        staged = {rank: states[rank].stage1(it) for rank in ranks}
        signals = {rank: [(dst, gid) for (dst, _kind), batch in
                          staged[rank].items() for gid in batch.gids]
                   for rank in ranks}
        columns = {rank: [] for rank in ranks}
        for outbox in staged.values():
            for (dst, _kind), batch in outbox.items():
                columns[dst].append(batch.gids)
        for rank in ranks:
            states[rank].activate(columns[rank])
        probe("staged")
        for rank in ranks:
            pending[rank].update(states[rank].finalize(it))
        log.append({
            "counts": counts, "signals": signals,
            "sent": {key: _records(b) for key, b in sorted(sent.items())},
            "stale": {rank: sorted(pending[rank]) for rank in ranks},
            "committed": {rank: states[rank].committed_state()
                          for rank in ranks}})
    return log


HAND_CASES = [("pagerank", "hash_edge_cut"), ("sssp", "hash_edge_cut"),
              ("pagerank", "random_vertex_cut"),
              ("sssp", "random_vertex_cut")]


def _hand_engine(graph, algorithm, partition):
    kw = _kwargs(algorithm, partition, 1)
    kw["num_nodes"] = 2
    return make_engine(graph, algorithm, **kw)


@pytest.mark.parametrize("algorithm,partition", HAND_CASES)
def test_node_protocols_agree_when_driven_by_hand(chaos_graph, algorithm,
                                                  partition):
    scalar_engine = _hand_engine(chaos_graph, algorithm, partition)
    array_engine = _hand_engine(chaos_graph, algorithm, partition)
    scalar = _drive_by_hand(scalar_engine, _scalar_states(scalar_engine), 3)
    arrays = _drive_by_hand(array_engine, _array_states(array_engine), 3)
    for it, (want, got) in enumerate(zip(scalar, arrays)):
        for field in want:
            assert got[field] == want[field], \
                f"{algorithm}/{partition}: superstep {it} diverged on {field}"
    # Non-vacuity: batches flowed, and under vertex-cut SSSP so did
    # remote activation signals.
    assert all(step["sent"] for step in scalar)
    if (algorithm, partition) == ("sssp", "random_vertex_cut"):
        assert any(pairs for step in scalar
                   for pairs in step["signals"].values())


def test_commit_stage1_leaves_the_committed_columns_alone(chaos_graph):
    """The abortable half of the commit: after stage 1 and the
    activation intake, what ``fullstate`` would export is still the
    previous commit; the finalize step alone moves it."""
    engine = _hand_engine(chaos_graph, "sssp", "random_vertex_cut")
    states = _array_states(engine)
    seen = {"computed": [], "staged": []}

    def probe(when):
        assert any(st.pend_mask.any() for st in states.values())
        seen[when].append({rank: st.committed_state()
                           for rank, st in states.items()})

    log = _drive_by_hand(engine, states, 3, probe)
    assert seen["staged"] == seen["computed"]
    assert all(step["committed"] != before
               for step, before in zip(log, seen["staged"]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_commit_stage1_remote_dedup_equals_row_unique(seed):
    """Remote activations come out unique, in the image's static
    (master node, gid) order; the batches must be what
    ``np.unique(axis=0)`` over (master node, gid) rows produced — same
    pairs, same (dst, gid) order."""
    from types import SimpleNamespace

    import numpy as np

    from repro.cluster.network import MessageKind
    from repro.engine.soa import NodeTopology, sync_columns
    from repro.engine.vectorized import ArrayNodeProtocol

    rng = np.random.default_rng(seed)
    n = 300
    gids = rng.permutation(50 * n)[:n].astype(np.int64)
    occupied = rng.random(n) >= 0.05  # tombstones, never edge targets
    gids[~occupied] = -1
    live = np.flatnonzero(occupied)
    is_master = occupied & (rng.random(n) < 0.3)
    master_node = np.where(occupied, rng.integers(0, 8, n), -1)
    no_edges = np.zeros(0, dtype=np.int64)
    topo = NodeTopology.from_columns(
        gids, occupied, is_master, np.zeros(n, dtype=bool),
        np.zeros(n, dtype=bool), master_node, np.ones(n), no_edges,
        no_edges, no_edges, rng.choice(live, 5 * n),
        rng.choice(live, 5 * n),
        sync_columns(no_edges, no_edges, no_edges))
    st = SimpleNamespace(topo=topo, pend_mask=np.ones(n, dtype=bool),
                         pend_activates=rng.random(n) < 0.7,
                         next_active=np.zeros(n, dtype=bool))
    outbox = ArrayNodeProtocol(None, is_edge_cut=False).commit_stage1(st)

    tgt = topo.out_dst[st.pend_activates[topo.out_src]]
    rem = tgt[~topo.is_master[tgt]]
    rows = np.unique(np.stack([topo.master_node[rem], topo.gids[rem]],
                              axis=1), axis=0)
    assert rem.size > 2 * len(rows)  # repeats were there to drop
    want: dict = {}
    for dst, gid in rows.tolist():
        want.setdefault((dst, MessageKind.ACTIVATE), []).append(gid)
    assert [(key, batch.gids.tolist()) for key, batch in outbox.items()] \
        == list(want.items())
    assert (st.next_active == np.isin(
        np.arange(n), tgt[topo.is_master[tgt]])).all()


def test_an_idle_node_folds_nothing_and_ends_as_the_scalar_run(chaos_graph,
                                                               monkeypatch):
    """An edge-cut node with no active master returns at once: no edge
    fold, no sync build.  SSSP's sparse frontier leaves nodes idle, and
    the run still matches the scalar one stat for stat."""
    from repro.engine.vectorized import ArrayNodeProtocol

    kw = _kwargs("sssp", "hash_edge_cut", 1)
    engine = make_engine(chaos_graph, "sssp", **kw)
    kernel = engine._protocol.kernel
    folds: list = []
    edge_fold = kernel.edge_fold
    monkeypatch.setattr(kernel, "edge_fold",
                        lambda *args: folds.append(1) or edge_fold(*args))
    idle: list = []
    compute = ArrayNodeProtocol.edge_cut_compute_node

    def spy(self, st, ctx, outbox):
        before = len(folds)
        quiet = not (st.active & st.topo.is_master).any()
        counts = compute(self, st, ctx, outbox)
        if quiet:
            idle.append((len(folds) - before, counts, dict(outbox)))
        return counts

    monkeypatch.setattr(ArrayNodeProtocol, "edge_cut_compute_node", spy)
    result = engine.run()
    assert idle
    assert all(item == (0, (0, 0, 0), {}) for item in idle)
    scalar = _run(chaos_graph, "sssp", False, kw)
    assert result.iteration_stats == scalar["iteration_stats"]
    assert engine.values() == scalar["values"]
    assert engine.syncs_elided == scalar["syncs_elided"]

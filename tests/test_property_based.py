"""Property-based tests (hypothesis) on the core invariants.

These fuzz small random graphs and configurations against the
invariants in DESIGN.md: partitioning completeness (P1), replication
coverage (P2/P3), and the recovery-equivalence property (P4).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.api import run_job
from repro.config import FaultToleranceConfig, FTMode
from repro.ft.replication import plan_replication
from repro.graph.builder import GraphBuilder
from repro.partition import (
    grid_vertex_cut,
    hash_edge_cut,
    hybrid_cut,
    random_vertex_cut,
)

SLOW = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def small_graphs(draw, max_vertices=40, max_edges=120):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    builder = GraphBuilder(num_vertices=n, name="hyp")
    for _ in range(m):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        builder.add_edge(src, dst)
    return builder.build()


class TestPartitioningProperties:
    @SLOW
    @given(graph=small_graphs(), num_nodes=st.integers(2, 6),
           seed=st.integers(0, 10))
    def test_edge_cut_assigns_every_vertex(self, graph, num_nodes, seed):
        part = hash_edge_cut(graph, num_nodes, seed=seed)
        part.validate(graph)
        assert len(part.master_of) == graph.num_vertices

    @SLOW
    @given(graph=small_graphs(), num_nodes=st.integers(2, 6),
           seed=st.integers(0, 10))
    def test_vertex_cuts_partition_edges(self, graph, num_nodes, seed):
        for cut in (random_vertex_cut, grid_vertex_cut, hybrid_cut):
            part = cut(graph, num_nodes, seed=seed)
            part.validate(graph)
            counts = np.bincount(part.edge_node, minlength=num_nodes)
            assert counts.sum() == graph.num_edges


class TestReplicationProperties:
    @SLOW
    @given(graph=small_graphs(), num_nodes=st.integers(3, 6),
           level=st.integers(1, 2), seed=st.integers(0, 5))
    def test_plan_covers_every_vertex(self, graph, num_nodes, level, seed):
        part = hash_edge_cut(graph, num_nodes, seed=seed)
        cfg = FaultToleranceConfig(mode=FTMode.REPLICATION, ft_level=level)
        plan = plan_replication(graph, part, cfg, seed=seed)
        plan.validate()  # P2/P3 checks inside

    @SLOW
    @given(graph=small_graphs(), num_nodes=st.integers(3, 6),
           seed=st.integers(0, 5))
    def test_vertex_cut_plan_covers(self, graph, num_nodes, seed):
        part = hybrid_cut(graph, num_nodes, seed=seed)
        cfg = FaultToleranceConfig(mode=FTMode.REPLICATION, ft_level=1)
        plan_replication(graph, part, cfg, seed=seed).validate()


class TestRecoveryEquivalence:
    """P4 fuzzing: any crash schedule within budget leaves results
    exactly equal to the failure-free run (edge-cut)."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph=small_graphs(max_vertices=25, max_edges=60),
           crash_node=st.integers(0, 3),
           crash_iter=st.integers(0, 4),
           recovery=st.sampled_from(["rebirth", "migration"]),
           phase=st.sampled_from(["compute", "after_commit"]))
    def test_pagerank_equivalence(self, graph, crash_node, crash_iter,
                                  recovery, phase):
        base = run_job(graph, "pagerank", num_nodes=4, max_iterations=5,
                       seed=3)
        failed = run_job(graph, "pagerank", num_nodes=4, max_iterations=5,
                         seed=3, recovery=recovery,
                         failures=[(crash_iter, [crash_node], phase)])
        for v in range(graph.num_vertices):
            assert failed.values[v] == base.values[v]

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph=small_graphs(max_vertices=25, max_edges=60),
           crash_node=st.integers(0, 3),
           recovery=st.sampled_from(["rebirth", "migration"]))
    def test_vertex_cut_equivalence(self, graph, crash_node, recovery):
        base = run_job(graph, "pagerank", num_nodes=4, max_iterations=5,
                       seed=3, partition="hybrid_cut")
        failed = run_job(graph, "pagerank", num_nodes=4, max_iterations=5,
                         seed=3, partition="hybrid_cut", recovery=recovery,
                         failures=[(2, [crash_node])])
        for v in range(graph.num_vertices):
            assert failed.values[v] == pytest.approx(base.values[v],
                                                     rel=1e-9)


class TestBuilderProperties:
    @SLOW
    @given(graph=small_graphs())
    def test_csr_degree_sums(self, graph):
        assert graph.out_degrees().sum() == graph.num_edges
        assert graph.in_degrees().sum() == graph.num_edges

    @SLOW
    @given(graph=small_graphs())
    def test_adjacency_roundtrip(self, graph):
        for v in range(graph.num_vertices):
            for u in graph.out_neighbors(v):
                assert v in graph.in_neighbors(int(u))


class TestVectorizedKernelProperties:
    """DESIGN.md §11 fuzzing: the SoA CSR build → edge-fold → apply
    round trip must equal a per-vertex reference fold bit-for-bit on
    arbitrary graphs — including inactive-vertex masking (unselected
    accumulators stay at their init value) and dangling vertices
    (no in-edges → ``has`` stays False and apply sees the identity)."""

    @staticmethod
    def _single_node_topo(graph):
        from repro.api import make_engine
        engine = make_engine(graph, "pagerank", num_nodes=1,
                             ft_mode="none", max_iterations=1)
        lg = engine.local_graphs[0]
        return lg, lg.topology()

    @SLOW
    @given(graph=small_graphs(), mask_seed=st.integers(0, 1000))
    def test_pagerank_fold_matches_scalar_reference(self, graph,
                                                    mask_seed):
        from repro.algorithms.kernels import PageRankKernel

        lg, topo = self._single_node_topo(graph)
        kernel = PageRankKernel(damping=0.85)
        rng = np.random.default_rng(mask_seed)
        values = rng.uniform(0.1, 2.0, size=topo.n)
        sel = rng.random(topo.n) < 0.6
        sel &= topo.occupied
        esel = np.flatnonzero(sel[topo.in_dst]) \
            if topo.in_dst.size else topo.in_dst
        acc, has = kernel.edge_fold(topo, values, esel)

        # Per-vertex reference: sequential left-to-right fold in edge
        # order, skipping zero-out-degree sources like the scalar loop.
        ref = np.zeros(topo.n)
        ref_has = np.zeros(topo.n, dtype=bool)
        for e in esel.tolist():
            src, dst = int(topo.in_src[e]), int(topo.in_dst[e])
            ref_has[dst] = True
            if topo.out_deg_f[src] > 0.0:
                ref[dst] += float(values[src]) / float(topo.out_deg_f[src])
        assert np.array_equal(has, ref_has)
        # Bit-exact, not approx: np.add.at accumulates in index order.
        assert np.array_equal(acc, ref)
        # Inactive masking: unselected positions keep the init value.
        assert not acc[~sel].any()
        assert not has[~sel].any()

        new = kernel.apply(topo.gids, values, acc, has,
                           ctx=None)
        expected = (1.0 - 0.85) + 0.85 * acc
        assert np.array_equal(new, expected)

    @SLOW
    @given(graph=small_graphs(), seed=st.integers(0, 1000),
           dense=st.booleans())
    def test_pagerank_divides_once_per_position(self, graph, seed, dense):
        """A loaded image's every in-edge source has out-edges, so
        PageRank divides each position's value by its out-degree once
        and gathers per edge: bit-equal to the per-edge divide, and the
        out-degree-0 positions (values zero or not) raise no
        ``RuntimeWarning`` under ``-W error``."""
        import warnings

        from repro.algorithms.kernels import PageRankKernel

        _, topo = self._single_node_topo(graph)
        assume((topo.out_deg_f[topo.occupied] == 0.0).any())
        assert topo.in_src_live
        rng = np.random.default_rng(seed)
        values = np.where(rng.random(topo.n) < 0.3, 0.0,
                          rng.uniform(0.1, 2.0, topo.n))
        esel = slice(None) if dense else np.flatnonzero(
            rng.random(topo.in_dst.size) < 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seg, contrib = PageRankKernel(0.85).edge_contrib(topo, values,
                                                             esel)
        src = topo.in_src[esel]
        want = values[src] / topo.out_deg_f[src]
        assert np.array_equal(seg, topo.in_dst[esel])
        assert contrib.dtype == want.dtype
        assert contrib.tobytes() == want.tobytes()

    def test_pagerank_filters_a_dead_source_off_a_hand_built_image(self):
        """An image whose in-edge source has out-degree 0 (hand-built:
        no loaded graph has one) keeps the per-edge ``[nz]`` filter:
        that edge contributes nothing, as the scalar ``out_degree == 0``
        branch skips it."""
        from repro.algorithms.kernels import PageRankKernel
        from repro.engine.soa import NodeTopology, sync_columns

        n, none = 3, np.zeros(0, dtype=np.int64)
        topo = NodeTopology.from_columns(
            np.arange(n), np.ones(n, dtype=bool), np.ones(n, dtype=bool),
            np.zeros(n, dtype=bool), np.zeros(n, dtype=bool),
            np.zeros(n, dtype=np.int64), np.array([0.0, 2.0, 1.0]),
            [0, 1, 2], [1.0, 1.0, 1.0], [2, 2, 0], none, none,
            sync_columns(none, none, none))
        assert not topo.in_src_live
        values = np.array([4.0, 3.0, 5.0])
        seg, contrib = PageRankKernel(0.85).edge_contrib(topo, values,
                                                         slice(None))
        assert seg.tolist() == [2, 0]
        assert contrib.tolist() == [3.0 / 2.0, 5.0 / 1.0]

    @SLOW
    @given(graph=small_graphs(), mask_seed=st.integers(0, 1000))
    def test_sssp_min_fold_and_dangling(self, graph, mask_seed):
        from repro.algorithms.kernels import SSSPKernel

        lg, topo = self._single_node_topo(graph)
        kernel = SSSPKernel(source=0)
        rng = np.random.default_rng(mask_seed)
        values = rng.uniform(0.0, 10.0, size=topo.n)
        sel = topo.occupied.copy()
        esel = np.flatnonzero(sel[topo.in_dst]) \
            if topo.in_dst.size else topo.in_dst
        acc, has = kernel.edge_fold(topo, values, esel)

        ref = np.full(topo.n, np.inf)
        for e in esel.tolist():
            src, dst = int(topo.in_src[e]), int(topo.in_dst[e])
            ref[dst] = min(ref[dst], float(values[src])
                           + float(topo.in_w[e]))
        assert np.array_equal(acc, ref)
        # Dangling vertices (no in-edges) never get an accumulator.
        dangling = topo.occupied & ~topo.has_in
        assert not has[dangling].any()
        assert np.isinf(acc[dangling]).all()
        # Min-apply keeps the old distance where nothing arrived.
        new = kernel.apply(topo.gids, values, acc, has, ctx=None)
        assert np.array_equal(new[dangling], values[dangling])

    @SLOW
    @given(graph=small_graphs(), mask_seed=st.integers(0, 1000))
    def test_cc_presence_gated_apply(self, graph, mask_seed):
        from repro.algorithms.kernels import CCKernel

        lg, topo = self._single_node_topo(graph)
        kernel = CCKernel()
        rng = np.random.default_rng(mask_seed)
        values = rng.integers(0, graph.num_vertices,
                              size=topo.n).astype(np.int64)
        sel = rng.random(topo.n) < 0.5
        sel &= topo.occupied
        esel = np.flatnonzero(sel[topo.in_dst]) \
            if topo.in_dst.size else topo.in_dst
        acc, has = kernel.edge_fold(topo, values, esel)
        new = kernel.apply(topo.gids, values, acc, has, ctx=None)
        # Presence-gated: positions without any contribution keep the
        # old label exactly (the int64 sentinel never leaks through).
        assert np.array_equal(new[~has], values[~has])
        ref = values.copy()
        for e in esel.tolist():
            src, dst = int(topo.in_src[e]), int(topo.in_dst[e])
            ref[dst] = min(ref[dst], values[src])
        assert np.array_equal(new, ref)

    @SLOW
    @given(graph=small_graphs())
    def test_translate_roundtrip(self, graph):
        """gid -> position translation inverts the position -> gid map
        for every occupied slot."""
        lg, topo = self._single_node_topo(graph)
        occ = np.flatnonzero(topo.occupied)
        assert np.array_equal(topo.translate(topo.gids[occ]), occ)


class TestInitialStateProperties:
    """A kernel program's initial state is two columns
    (``VertexProgram.initial_values`` / ``initially_active``), equal to
    its per-vertex ``initial_value`` / ``is_initially_active`` bit for
    bit, in the kernel's dtype, for any gids in any order."""

    @SLOW
    @given(name=st.sampled_from(["pagerank", "sssp", "cc", "degree"]),
           gids=st.lists(st.integers(0, 10 ** 6), max_size=40),
           source=st.integers(0, 50), iteration=st.integers(0, 3))
    def test_initial_columns_equal_the_per_gid_values(self, name, gids,
                                                      source, iteration):
        from repro.algorithms import ALGORITHMS
        from repro.engine.vertex_program import ApplyContext
        program = ALGORITHMS[name](
            **({"source": source} if name == "sssp" else {}))
        dtype = np.dtype(program.kernel().dtype)
        ctx = ApplyContext(iteration, 10 ** 6 + 1, 0)
        gids = np.array(gids + [source], dtype=np.int64)
        values = program.initial_values(gids, ctx)
        scalar = [program.initial_value(g, ctx) for g in gids.tolist()]
        assert values.dtype == dtype and values.shape == gids.shape
        assert values.tobytes() == np.array(scalar, dtype=dtype).tobytes()
        assert [type(v) for v in values.tolist()] == list(map(type, scalar))
        active = program.initially_active(gids)
        assert active.dtype == np.dtype(bool)
        assert active.tolist() == [program.is_initially_active(g)
                                   for g in gids.tolist()]


class TestCombinerProperties:
    """Combining-layer invariants (DESIGN.md §15): the declared
    combiners are commutative-associative over the values the programs
    produce, and the raw wire format's receiver-side group fold equals
    the sender-side fold bit-for-bit for any contribution multiset."""

    @SLOW
    @given(contribs=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                       allow_nan=False), max_size=20),
           order_seed=st.integers(0, 1000),
           name=st.sampled_from(["min", "max"]))
    def test_min_max_fold_is_order_free(self, contribs, order_seed, name):
        from repro.engine.combine import fold_contributions
        acc, folded = fold_contributions(name, None, contribs)
        rng = np.random.default_rng(order_seed)
        shuffled = [contribs[i] for i in rng.permutation(len(contribs))]
        acc2, folded2 = fold_contributions(name, None, shuffled)
        assert acc == acc2 and folded == folded2 == len(contribs)

    @SLOW
    @given(contribs=st.lists(st.integers(-10**6, 10**6), max_size=20),
           order_seed=st.integers(0, 1000))
    def test_sum_fold_is_order_free_on_exact_values(self, contribs,
                                                    order_seed):
        # float sums are only order-free when every partial is exactly
        # representable — integer-valued contributions are; that is why
        # the determinism contract pins the fold order instead of
        # relying on commutativity of float addition.
        from repro.engine.combine import fold_contributions
        floats = [float(c) for c in contribs]
        acc, _ = fold_contributions("sum", 0.0, floats)
        rng = np.random.default_rng(order_seed)
        shuffled = [floats[i] for i in rng.permutation(len(floats))]
        acc2, _ = fold_contributions("sum", 0.0, shuffled)
        assert acc == acc2

    @SLOW
    @given(groups=st.lists(st.lists(st.floats(min_value=0.0,
                                              max_value=1e3,
                                              allow_nan=False),
                                    max_size=6),
                           min_size=1, max_size=8),
           name=st.sampled_from(["sum", "min", "max"]))
    def test_receiver_group_fold_matches_sender_fold(self, groups, name):
        """RawGatherBatch round trip: folding each shipped group on the
        receiver reproduces the partial the sender would have combined,
        in both the scalar and the vectorized (ufunc.at) fold."""
        from repro.engine.combine import fold_contributions, ufunc_of

        batch_counts = np.array([len(g) for g in groups], dtype=np.int64)
        flat = [c for g in groups for c in g]
        init = 0.0 if name == "sum" else None
        expected = [fold_contributions(name, init, g)[0] for g in groups]

        # Scalar receiver fold (fold_raw_batch's loop).
        scalar = [fold_contributions(name, init, g)[0] for g in groups]
        assert scalar == expected

        # Vectorized receiver fold: index-order ufunc scatter.
        sentinel = {"sum": 0.0, "min": np.inf, "max": -np.inf}[name]
        acc = np.full(len(groups), sentinel, dtype=np.float64)
        if flat:
            ridx = np.repeat(np.arange(len(groups)), batch_counts)
            ufunc_of(name).at(acc, ridx, np.asarray(flat))
        for i, g in enumerate(groups):
            if not g:
                continue  # empty groups keep the fold identity
            want = expected[i]
            if name != "sum" and want is None:
                continue
            assert acc[i] == (want if init is not None or g else sentinel)


class TestRebalanceProperties:
    """Incremental Fennel restreaming (DESIGN.md §14): elastic joins
    and drains must keep every master on a live node, stay deterministic
    under the plan seed, and respect the streaming balance bound."""

    @SLOW
    @given(graph=small_graphs(), num_nodes=st.integers(2, 6),
           seed=st.integers(0, 10), drop=st.integers(0, 1),
           add=st.integers(0, 2))
    def test_rebalance_lands_on_live_nodes_only(self, graph, num_nodes,
                                                seed, drop, add):
        from repro.partition.fennel import fennel_rebalance
        part = hash_edge_cut(graph, num_nodes, seed=seed)
        master_of = list(part.master_of)
        nodes = list(range(num_nodes))
        if drop and len(nodes) > 2:
            nodes.remove(nodes[seed % len(nodes)])
        # Elastic joins allocate non-contiguous ids above the pool.
        nodes.extend(100 + i for i in range(add))
        new_master_of, moves = fennel_rebalance(graph, master_of, nodes,
                                                seed=seed)
        live = set(nodes)
        assert all(node in live for node in new_master_of)
        assert len(new_master_of) == graph.num_vertices
        # `moves` is exactly the delta, sorted by vertex id.
        delta = [(gid, new_master_of[gid])
                 for gid in range(graph.num_vertices)
                 if new_master_of[gid] != master_of[gid]]
        assert moves == delta

    @SLOW
    @given(graph=small_graphs(), num_nodes=st.integers(3, 6),
           seed=st.integers(0, 10))
    def test_rebalance_deterministic_under_seed(self, graph, num_nodes,
                                                seed):
        from repro.partition.fennel import fennel_rebalance
        part = hash_edge_cut(graph, num_nodes, seed=seed)
        master_of = list(part.master_of)
        nodes = [n for n in range(num_nodes) if n != 0] + [100]
        first = fennel_rebalance(graph, master_of, nodes, seed=seed)
        second = fennel_rebalance(graph, list(master_of), list(nodes),
                                  seed=seed)
        assert first == second

    @SLOW
    @given(graph=small_graphs(), num_nodes=st.integers(2, 5),
           seed=st.integers(0, 10), joins=st.integers(1, 2))
    def test_rebalance_balance_bound(self, graph, num_nodes, seed,
                                     joins):
        from collections import Counter

        from repro.partition.fennel import fennel_rebalance
        part = hash_edge_cut(graph, num_nodes, seed=seed)
        nodes = list(range(num_nodes)) + [100 + i for i in range(joins)]
        new_master_of, _moves = fennel_rebalance(
            graph, list(part.master_of), nodes, seed=seed)
        loads = Counter(new_master_of)
        capacity = 1.1 * graph.num_vertices / len(nodes) + 1
        assert max(loads.values()) <= int(capacity) + 1

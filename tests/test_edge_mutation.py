"""Edge-state mutation tests (Section 4.3's rare-but-supported case).

A decaying-weight program exercises the full chain: BSP-consistent
commits, mirror edge synchronisation (edge-cut), incremental edge-ckpt
logging (vertex-cut), snapshot journaling (CKPT mode), and exact
recovery of mutated edge state on every path.
"""

from __future__ import annotations

import pytest

from repro.api import make_engine
from repro.engine.vertex_program import (
    VertexProgram,
    VertexView,
)
from repro.graph import generators


class DecayingDegree(VertexProgram):
    """Sums in-edge weights, then halves each gathered edge's weight.

    After iteration t, every (always-gathered) edge's weight is
    w0 * 0.5^(t+1) and each vertex's value is its weighted in-degree
    as seen with the *pre-decay* weights of that iteration.
    """

    name = "decaying-degree"
    history_free = True
    mutates_edges = True

    def initial_value(self, vid, ctx):
        return 0.0

    def gather_init(self):
        return 0.0

    def gather(self, acc, src: VertexView, weight, dst_vid):
        return acc + weight

    def gather_sum(self, a, b):
        return (a or 0.0) + (b or 0.0)

    def update_edge(self, src, dst_vid, weight, ctx):
        return weight * 0.5

    def apply(self, vid, old_value, acc, ctx):
        return acc or 0.0


def graph():
    return generators.power_law(120, alpha=2.0, seed=23, avg_degree=4.0)


def run(partition="hash_edge_cut", ft_mode="replication", failures=(),
        iterations=4, **kw):
    engine = make_engine(graph(), DecayingDegree(), num_nodes=4,
                         max_iterations=iterations, partition=partition,
                         ft_mode=ft_mode, num_standby=2, **kw)
    for failure in failures:
        engine.schedule_failure(*failure)
    return engine, engine.run()


class TestSemantics:
    def test_values_follow_decay(self):
        g = graph()
        _, result = run()
        in_weight = {v: sum(g.edge(int(e))[2] for e in g.in_edge_ids(v))
                     for v in range(g.num_vertices)}
        # Iteration 3 gathers weights already decayed three times.
        for v in range(g.num_vertices):
            assert result.values[v] == pytest.approx(
                in_weight[v] * 0.5 ** 3)

    def test_vertex_cut_matches_edge_cut(self):
        _, a = run(partition="hash_edge_cut")
        _, b = run(partition="hybrid_cut")
        for v in range(120):
            assert a.values[v] == pytest.approx(b.values[v], rel=1e-12)

    def test_mirror_edges_stay_fresh(self):
        engine, _ = run()
        for lg in engine.local_graphs.values():
            for slot in lg.iter_masters():
                for mnode in slot.meta.mirror_nodes:
                    mirror = engine.local_graphs[mnode].slot_of(slot.gid)
                    for (pos, w), (_, mpos, mw) in zip(
                            slot.in_edges, mirror.full_edges):
                        assert pos == mpos
                        assert w == pytest.approx(mw)

    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    def test_mutated_weights_drop_the_load_built_image(self, partition):
        """The SoA image is born at load, scalar runs included: a
        committed weight change is an edge-list write like any other
        and takes the node's image with it (DESIGN.md §11)."""
        from repro.chaos.invariants import InvariantChecker
        engine = make_engine(graph(), DecayingDegree(), num_nodes=4,
                             max_iterations=4, partition=partition)
        assert all(lg.cached_topology is not None
                   for lg in engine.local_graphs.values())
        checker = InvariantChecker(check_values=False)
        engine.attach_chaos(checker)
        engine.run()
        assert checker.checks == 4
        assert all(lg.cached_topology is None
                   for lg in engine.local_graphs.values())

    def test_edge_ckpt_log_grows(self):
        engine, _ = run(partition="hybrid_cut")
        total = sum(len(engine.edge_ckpt.read_all(n)) for n in range(4))
        # Loading records + one update per gathered edge per iteration.
        assert total > engine.graph.num_edges


class TestRecoveryOfMutatedEdges:
    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    @pytest.mark.parametrize("recovery", ["rebirth", "migration"])
    def test_replication_recovery_exact(self, partition, recovery):
        _, base = run(partition=partition)
        _, failed = run(partition=partition, recovery=recovery,
                        failures=[(2, [1])])
        for v in range(120):
            assert failed.values[v] == pytest.approx(base.values[v],
                                                     rel=1e-9)

    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    def test_checkpoint_recovery_exact(self, partition):
        _, base = run(partition=partition, ft_mode="none")
        _, failed = run(partition=partition, ft_mode="checkpoint",
                        checkpoint_interval=2, failures=[(3, [1])])
        assert failed.recoveries
        for v in range(120):
            assert failed.values[v] == pytest.approx(base.values[v],
                                                     rel=1e-12)

    def test_ckpt_snapshots_carry_edge_journal(self):
        engine, _ = run(ft_mode="checkpoint", iterations=2)
        payload = engine.cluster.store.read("ckpt/data/node0/iter000000")
        assert payload["edges"], "edge journal missing from snapshot"

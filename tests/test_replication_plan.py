"""Replication-planning tests: FT replicas, mirrors, invariants P2/P3."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FaultToleranceConfig, FTMode
from repro.errors import ConfigError
from repro.ft.replication import computation_replicas, plan_replication
from repro.graph import generators
from repro.partition import hash_edge_cut, hybrid_cut
from repro.partition.base import EdgeCutPartitioning
from repro.partition.fennel import fennel_edge_cut
from repro.partition.grid_vertex_cut import grid_vertex_cut
from repro.partition.random_vertex_cut import random_vertex_cut


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(400, alpha=2.0, seed=21, avg_degree=5.0,
                                selfish_frac=0.15)


def ft(level, **kw):
    return FaultToleranceConfig(mode=FTMode.REPLICATION, ft_level=level,
                                **kw)


class TestComputationReplicas:
    def test_edge_cut_semantics(self, graph):
        part = hash_edge_cut(graph, 6)
        replicas = computation_replicas(graph, part)
        # A replica of u exists exactly on remote out-neighbor nodes.
        for eid in range(graph.num_edges):
            u = int(graph.sources[eid])
            v = int(graph.targets[eid])
            if part.master_of[u] != part.master_of[v]:
                assert int(part.master_of[v]) in replicas[u]

    def test_master_never_in_own_replicas(self, graph):
        part = hybrid_cut(graph, 6)
        replicas = computation_replicas(graph, part)
        for v in range(graph.num_vertices):
            assert int(part.master_of[v]) not in replicas[v]


    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("partitioner", [
        hash_edge_cut, fennel_edge_cut, hybrid_cut, random_vertex_cut,
        grid_vertex_cut])
    def test_equal_to_the_edge_walk(self, partitioner, seed):
        """The ``np.unique`` over off-master (vertex, node) pairs finds
        what walking every edge found."""
        graph = generators.power_law(300, alpha=2.0, seed=seed,
                                     avg_degree=5.0, selfish_frac=0.1)
        part = partitioner(graph, 6, seed=seed)
        walked: list[set[int]] = [set() for _ in range(graph.num_vertices)]
        for eid in range(graph.num_edges):
            u, v = int(graph.sources[eid]), int(graph.targets[eid])
            if isinstance(part, EdgeCutPartitioning):
                copies = [(u, int(part.master_of[v]))]
            else:
                copies = [(u, int(part.edge_node[eid])),
                          (v, int(part.edge_node[eid]))]
            for vertex, node in copies:
                if node != int(part.master_of[vertex]):
                    walked[vertex].add(node)
        found = computation_replicas(graph, part)
        assert found == walked
        assert all(type(node) is int for nodes in found for node in nodes)


class TestPlanInvariants:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_every_vertex_covered(self, graph, level):
        part = hash_edge_cut(graph, 8)
        plan = plan_replication(graph, part, ft(level))
        plan.validate()
        for v in range(graph.num_vertices):
            assert len(plan.replica_nodes[v]) >= level
            assert len(plan.mirror_nodes[v]) == level

    def test_mirrors_on_distinct_nodes(self, graph):
        part = hash_edge_cut(graph, 8)
        plan = plan_replication(graph, part, ft(3))
        for v in range(graph.num_vertices):
            mirrors = plan.mirror_nodes[v]
            assert len(set(mirrors)) == len(mirrors)
            assert int(plan.master_of[v]) not in mirrors

    def test_ft_replicas_are_mirrors(self, graph):
        """Section 4.2: the FT replica is always the mirror."""
        part = hash_edge_cut(graph, 8)
        plan = plan_replication(graph, part, ft(1))
        for v in range(graph.num_vertices):
            for node in plan.ft_nodes[v]:
                assert node in plan.mirror_nodes[v]

    def test_zero_level_plan_is_bare(self, graph):
        part = hash_edge_cut(graph, 8)
        cfg = FaultToleranceConfig(mode=FTMode.NONE, ft_level=0)
        plan = plan_replication(graph, part, cfg)
        assert plan.total_ft_replicas() == 0
        assert all(not m for m in plan.mirror_nodes)

    def test_selfish_flags(self, graph):
        part = hash_edge_cut(graph, 8)
        plan = plan_replication(graph, part, ft(1))
        assert np.array_equal(plan.selfish, graph.out_degrees() == 0)

    def test_extra_replica_fraction_small(self, graph):
        """Fig. 3b/8a: FT replicas are a small share of all replicas."""
        part = hash_edge_cut(graph, 8)
        plan = plan_replication(graph, part, ft(1))
        assert plan.extra_replica_fraction() < 0.25

    def test_higher_level_needs_more_ft_replicas(self, graph):
        part = hash_edge_cut(graph, 8)
        one = plan_replication(graph, part, ft(1)).total_ft_replicas()
        three = plan_replication(graph, part, ft(3)).total_ft_replicas()
        assert three > one

    def test_impossible_level_rejected(self, graph):
        part = hash_edge_cut(graph, 3)
        with pytest.raises(ConfigError):
            plan_replication(graph, part, ft(3))

    def test_deterministic(self, graph):
        part = hash_edge_cut(graph, 8)
        a = plan_replication(graph, part, ft(2), seed=5)
        b = plan_replication(graph, part, ft(2), seed=5)
        assert a.replica_nodes == b.replica_nodes
        assert a.mirror_nodes == b.mirror_nodes

    def test_mirror_load_balanced(self, graph):
        """The greedy election spreads mirrors across machines."""
        part = hash_edge_cut(graph, 8)
        plan = plan_replication(graph, part, ft(1))
        counts = np.zeros(8, dtype=int)
        for v in range(graph.num_vertices):
            for node in plan.mirror_nodes[v]:
                counts[node] += 1
        assert counts.max() < 3 * max(1, counts.mean())

    def test_vertex_cut_plan(self, graph):
        part = hybrid_cut(graph, 8)
        plan = plan_replication(graph, part, ft(2))
        plan.validate()
        for v in range(graph.num_vertices):
            assert len(plan.mirror_nodes[v]) == 2

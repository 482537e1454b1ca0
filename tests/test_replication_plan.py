"""Replication-planning tests: FT replicas, mirrors, invariants P2/P3,
and the CSR planner against the list planner of
``tests/reference/replication.py``."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import FaultToleranceConfig, FTMode
from repro.errors import ConfigError
from repro.ft.replication import NodeRows, plan_replication
from repro.graph import generators
from repro.graph.graph import Graph
from repro.partition import hash_edge_cut, hybrid_cut
from repro.partition.base import (
    EdgeCutPartitioning,
    assign_masters_for_vertex_cut,
    replica_pairs,
)
from repro.partition.fennel import fennel_edge_cut
from repro.partition.grid_vertex_cut import grid_vertex_cut
from repro.partition.random_vertex_cut import random_vertex_cut
from tests.reference import replication as reference


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(400, alpha=2.0, seed=21, avg_degree=5.0,
                                selfish_frac=0.15)


def ft(level, **kw):
    return FaultToleranceConfig(mode=FTMode.REPLICATION, ft_level=level,
                                **kw)


def rows(node_rows) -> list[list[int]]:
    """A plan's CSR rows as the reference planner's lists."""
    return [node_rows[v].tolist() for v in range(node_rows.ptr.size - 1)]


def computation_replicas(graph, part) -> NodeRows:
    """The plan's computation-replica rows: the partitioning's sorted
    off-master ``(vertex, node)`` pairs."""
    return NodeRows.of(*replica_pairs(graph, part), graph.num_vertices)


def with_row(node_rows: NodeRows, v: int, row: list[int]) -> NodeRows:
    """``node_rows`` with vertex ``v``'s row replaced by ``row``."""
    lo, hi = node_rows.ptr[v], node_rows.ptr[v + 1]
    grown = (np.arange(node_rows.ptr.size) > v) * (len(row) - (hi - lo))
    return NodeRows(node_rows.ptr + grown, np.concatenate(
        [node_rows.nodes[:lo], np.array(row, dtype=np.int64),
         node_rows.nodes[hi:]]))


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
        assert rows(found) == [sorted(nodes) for nodes in walked]
        assert found.nodes.dtype == found.ptr.dtype == np.int64


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
        assert plan.mirror_nodes.nodes.size == 0
        assert not plan.mirror_nodes.ptr.any()

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
        assert rows(a.replica_nodes) == rows(b.replica_nodes)
        assert rows(a.mirror_nodes) == rows(b.mirror_nodes)

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


class TestValidate:
    """One corruption per invariant: ``validate`` raises the typed error
    of the list planner's per-vertex walk, naming the first offending
    vertex."""

    @pytest.fixture(scope="class")
    def plan(self, graph):
        plan = plan_replication(graph, hash_edge_cut(graph, 8), ft(2))
        plan.validate()
        return plan

    @staticmethod
    def corrupted(plan, v, **replaced_rows):
        return dataclasses.replace(plan, **{
            name: with_row(getattr(plan, name), v, row)
            for name, row in replaced_rows.items()})

    @staticmethod
    def vertex(plan, replicas=3, fts=0):
        """A vertex with ``replicas`` replicas, ``fts`` of them FT."""
        return next(v for v in range(plan.master_of.size)
                    if len(plan.replica_nodes[v]) == replicas
                    and len(plan.ft_nodes[v]) == fts)

    @staticmethod
    def outsider(plan, v):
        """A node holding no copy of ``v``."""
        taken = {int(plan.master_of[v]), *plan.replica_nodes[v].tolist()}
        return min(set(range(plan.num_nodes)) - taken)

    def test_master_in_replicas(self, plan):
        v = self.vertex(plan)
        master = int(plan.master_of[v])
        bad = self.corrupted(plan, v, replica_nodes=sorted(
            [*plan.replica_nodes[v].tolist(), master]))
        with pytest.raises(ConfigError, match=(
                f"^vertex {v}: master node {master} also in replicas$")):
            bad.validate()

    def test_duplicate_replica(self, plan):
        v = self.vertex(plan)
        row = plan.replica_nodes[v].tolist()
        bad = self.corrupted(plan, v, replica_nodes=[row[0], *row])
        with pytest.raises(ConfigError,
                           match=f"^vertex {v}: duplicate replica nodes$"):
            bad.validate()

    def test_ft_node_outside_the_replicas(self, plan):
        v = self.vertex(plan, replicas=2, fts=1)
        bad = self.corrupted(plan, v, ft_nodes=[self.outsider(plan, v)])
        with pytest.raises(ConfigError,
                           match=f"^vertex {v}: FT node not in replicas$"):
            bad.validate()

    def test_mirror_outside_the_replicas(self, plan):
        v = self.vertex(plan)
        mirrors = plan.mirror_nodes[v].tolist()
        bad = self.corrupted(plan, v, mirror_nodes=[
            mirrors[0], self.outsider(plan, v)])
        with pytest.raises(ConfigError,
                           match=f"^vertex {v}: mirror node not a replica$"):
            bad.validate()

    def test_mirror_count(self, plan):
        v = self.vertex(plan)
        bad = self.corrupted(plan, v,
                             mirror_nodes=plan.mirror_nodes[v][:1].tolist())
        with pytest.raises(ConfigError, match=(
                f"^vertex {v}: expected 2 mirrors, got 1 of 3 replicas$")):
            bad.validate()

    def test_too_few_copies(self, plan):
        v = self.vertex(plan)
        node = int(plan.mirror_nodes[v][0])
        bad = self.corrupted(plan, v, replica_nodes=[node],
                             mirror_nodes=[node])
        with pytest.raises(ConfigError, match=(
                f"^vertex {v}: only 1 copies for ft_level 2$")):
            bad.validate()

    def test_the_first_offending_vertex_is_named(self, plan):
        """The lower vertex wins, even when its invariant is checked
        after the higher vertex's."""
        low, high = 3, 9
        master = int(plan.master_of[high])
        bad = self.corrupted(plan, low,
                             mirror_nodes=plan.mirror_nodes[low][:1].tolist())
        bad = self.corrupted(bad, high, replica_nodes=sorted(
            [*plan.replica_nodes[high].tolist(), master]))
        with pytest.raises(ConfigError,
                           match=f"^vertex {low}: expected 2 mirrors"):
            bad.validate()

    def test_checked_at_ft_level_zero(self, graph):
        plan = plan_replication(graph, hash_edge_cut(graph, 8),
                                FaultToleranceConfig(mode=FTMode.NONE,
                                                     ft_level=0))
        v = next(v for v in range(plan.master_of.size)
                 if len(plan.replica_nodes[v]))
        row = plan.replica_nodes[v].tolist()
        with pytest.raises(ConfigError, match="duplicate replica nodes"):
            self.corrupted(plan, v, replica_nodes=[row[0], *row]).validate()


@st.composite
def graphs(draw):
    """Small multigraphs: self loops, isolated vertices, no edges."""
    n = draw(st.integers(1, 30))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=90))
    return Graph(n, [u for u, _ in edges], [v for _, v in edges])


CUTS = {
    "hash_edge_cut": hash_edge_cut,
    "hybrid_cut": hybrid_cut,
    "random_vertex_cut": random_vertex_cut,
    "grid_vertex_cut": grid_vertex_cut,
}


class TestReferencePlanner:
    """The CSR planner against the list planner of
    ``tests/reference/replication.py``: same FT placement (same sampling
    calls), same election, same census, list for list."""

    @settings(max_examples=150, deadline=None)
    @given(graph=graphs(), cut=st.sampled_from(sorted(CUTS)),
           num_nodes=st.integers(2, 7), level=st.integers(1, 3),
           candidates=st.integers(1, 8), seed=st.integers(0, 4))
    @example(graph=Graph(5, [], []), cut="hash_edge_cut", num_nodes=4,
             level=3, candidates=3, seed=0)
    @example(graph=Graph(6, [0, 1], [1, 0]), cut="hybrid_cut",
             num_nodes=3, level=2, candidates=2, seed=1)
    def test_equal_to_the_list_planner(self, graph, cut, num_nodes, level,
                                       candidates, seed):
        level = min(level, num_nodes - 1)
        part = CUTS[cut](graph, num_nodes, seed=seed)
        cfg = ft(level, placement_candidates=candidates)
        plan = plan_replication(graph, part, cfg, seed=seed)
        want = reference.plan_replication(graph, part, cfg, seed=seed)
        assert rows(plan.replica_nodes) == want.replica_nodes
        assert rows(plan.ft_nodes) == want.ft_nodes
        assert rows(plan.mirror_nodes) == want.mirror_nodes
        assert np.array_equal(plan.selfish, want.selfish)
        assert (plan.total_computation_replicas()
                == want.total_computation_replicas())
        assert plan.total_ft_replicas() == want.total_ft_replicas()
        assert plan.extra_replica_fraction() == want.extra_replica_fraction()

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("cut", sorted(CUTS))
    def test_equal_at_load_size(self, graph, cut, level):
        part = CUTS[cut](graph, 8, seed=level)
        cfg = ft(level)
        plan = plan_replication(graph, part, cfg, seed=level)
        want = reference.plan_replication(graph, part, cfg, seed=level)
        assert rows(plan.replica_nodes) == want.replica_nodes
        assert rows(plan.ft_nodes) == want.ft_nodes
        assert rows(plan.mirror_nodes) == want.mirror_nodes

    @settings(max_examples=150, deadline=None)
    @given(graph=graphs(), num_nodes=st.integers(1, 9),
           seed=st.integers(0, 4), data=st.data())
    def test_master_assignment_equal_to_the_edge_loop(self, graph,
                                                      num_nodes, seed,
                                                      data):
        edge_node = np.array(data.draw(st.lists(
            st.integers(0, num_nodes - 1), min_size=graph.num_edges,
            max_size=graph.num_edges)), dtype=np.int64)
        have = assign_masters_for_vertex_cut(graph, edge_node, num_nodes,
                                             seed=seed)
        want = reference.assign_masters_for_vertex_cut(
            graph, edge_node, num_nodes, seed=seed)
        assert have.dtype == want.dtype
        assert np.array_equal(have, want)

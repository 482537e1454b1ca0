"""Array-native loading against the slot-at-a-time reference.

``repro.engine.construction.build_local_graphs`` computes every node's
layout with numpy group-bys and hands each ``LocalGraph`` its SoA image
and FT census at birth; ``tests/reference/construction.py`` is the
three-pass build it replaced.  Everything observable must be equal:
the slots (dataclass ``==``), the insertion orders that are send or
scan orders (``index_of``, ``replica_positions``, the census' levels),
the image field for field (dtype, values, ``sync_plan`` key order)
against ``NodeTopology.build`` of the reference graph, and the report.
The two checks the reference made one slot at a time — no vertex twice
on a node, no edge endpoint without a copy — must survive as typed
errors.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FaultToleranceConfig, FTMode
from repro.engine.construction import build_local_graphs
from repro.engine.soa import NodeTopology
from repro.errors import EngineError
from repro.ft.replication import plan_replication
from repro.graph import generators
from repro.graph.graph import Graph
from repro.partition import hash_edge_cut, hybrid_cut
from repro.partition.fennel import fennel_edge_cut
from repro.partition.grid_vertex_cut import grid_vertex_cut
from repro.partition.random_vertex_cut import random_vertex_cut
from tests.reference import construction as reference

PARTITIONERS = {
    "hash_edge_cut": hash_edge_cut,
    "fennel_edge_cut": fennel_edge_cut,
    "hybrid_cut": hybrid_cut,
    "random_vertex_cut": random_vertex_cut,
    "grid_vertex_cut": grid_vertex_cut,
}


def plan_for(graph, part, level, seed=0):
    cfg = (FaultToleranceConfig(mode=FTMode.REPLICATION, ft_level=level)
           if level else FaultToleranceConfig(mode=FTMode.NONE, ft_level=0))
    return plan_replication(graph, part, cfg, seed=seed)


def assert_same_image(have: NodeTopology, want: NodeTopology) -> None:
    for name in NodeTopology.__slots__:
        a, b = getattr(have, name), getattr(want, name)
        if name == "n":
            assert a == b
        elif name == "sync_plan":
            # Key order is message send order.
            assert list(a) == list(b)
            assert all(type(node) is int and type(mirror) is bool
                       for node, mirror in a)
            for key in b:
                assert a[key].dtype == b[key].dtype, (name, key)
                assert np.array_equal(a[key], b[key]), (name, key)
        else:
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


def assert_same_build(graph, part, plan) -> None:
    built, report = build_local_graphs(graph, part, plan)
    wanted, wanted_report = reference.build_local_graphs(graph, part, plan)
    assert report == wanted_report
    assert list(built) == list(wanted)
    for node, want in wanted.items():
        have = built[node]
        assert have.node_id == node
        assert have.slots == want.slots
        assert list(have.index_of.items()) == list(want.index_of.items())
        for slot, want_slot in zip(have.slots, want.slots):
            if want_slot.meta is not None:
                assert (list(slot.meta.replica_positions.items())
                        == list(want_slot.meta.replica_positions.items()))
        assert have.active_masters == have.active_others == set()
        assert_same_image(have.cached_topology, NodeTopology.build(want))
        # The census handed over at birth is what a scan finds.
        born, scanned = have.ft_census(), want.ft_census()
        assert born == scanned and list(born[1]) == list(scanned[1])
        have.invalidate_soa()
        assert have.ft_census() == born
        assert_same_image(have.topology(), NodeTopology.build(want))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("partition", sorted(PARTITIONERS))
def test_equal_to_the_reference(partition, level, seed):
    graph = generators.power_law(300, alpha=2.0, seed=seed, avg_degree=5.0,
                                 selfish_frac=0.1)
    part = PARTITIONERS[partition](graph, 8, seed=seed)
    assert_same_build(graph, part, plan_for(graph, part, level, seed))


@pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
def test_equal_to_the_reference_at_ten_times_the_size(partition):
    graph = generators.power_law(3000, alpha=2.0, seed=5, avg_degree=8.0)
    part = PARTITIONERS[partition](graph, 8, seed=5)
    assert_same_build(graph, part, plan_for(graph, part, 1, 5))


EDGE_CASES = {
    # 5 vertices over 8 nodes: some nodes host nothing at all.
    "ring": Graph(5, [0, 1, 2, 3, 4], [1, 2, 3, 4, 0]),
    "no_edges": Graph(6, [], []),
    "loops_and_multi_edges": Graph(
        6, [0, 0, 1, 2, 2, 2, 3, 5, 5], [0, 1, 1, 2, 2, 3, 2, 5, 5],
        weights=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.5]),
}


@pytest.mark.parametrize("num_nodes", [1, 3, 8])
@pytest.mark.parametrize("partition", sorted(PARTITIONERS))
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases(case, partition, num_nodes):
    graph = EDGE_CASES[case]
    part = PARTITIONERS[partition](graph, num_nodes, seed=1)
    for level in range(min(num_nodes, 3)):
        assert_same_build(graph, part, plan_for(graph, part, level, 1))


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    weights = draw(st.lists(st.floats(0.5, 4.0), min_size=len(edges),
                            max_size=len(edges)))
    return Graph(n, [u for u, _ in edges], [v for _, v in edges],
                 weights=weights)


@settings(max_examples=60, deadline=None)
@given(graph=multigraphs(), partition=st.sampled_from(sorted(PARTITIONERS)),
       num_nodes=st.integers(1, 5), level=st.integers(0, 3),
       seed=st.integers(0, 3))
def test_random_multigraphs(graph, partition, num_nodes, level, seed):
    part = PARTITIONERS[partition](graph, num_nodes, seed=seed)
    level = min(level, num_nodes - 1)
    assert_same_build(graph, part, plan_for(graph, part, level, seed))


class TestTypedFailures:
    @pytest.fixture(scope="class")
    def graph(self):
        return generators.power_law(120, alpha=2.0, seed=11, avg_degree=4.0)

    def test_edge_placed_where_an_endpoint_has_no_copy(self, graph):
        """A bare ``KeyError`` out of ``position_of`` before; and a bulk
        ``searchsorted`` alone would silently link the neighbouring
        copy's position."""
        part = hybrid_cut(graph, 4, seed=1)
        plan = plan_for(graph, part, 0)
        eid, node = next(
            (eid, node) for eid in range(graph.num_edges)
            for node in range(4)
            if node != plan.master_of[graph.sources[eid]]
            and node not in plan.replica_nodes[graph.sources[eid]])
        edge_node = np.array(part.edge_node)
        edge_node[eid] = node
        corrupted = dataclasses.replace(part, edge_node=edge_node)
        gid = int(graph.sources[eid])
        with pytest.raises(EngineError,
                           match=f"vertex {gid} has no copy on node {node}"):
            build_local_graphs(graph, corrupted, plan)

    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    def test_master_inside_its_own_replica_set(self, graph, partition):
        """``plan.validate()`` is skipped at ``ft_level == 0``; the
        reference caught this only because ``add_slot`` ran per slot."""
        part = PARTITIONERS[partition](graph, 4, seed=1)
        plan = plan_for(graph, part, 0)
        gid = 17
        node = int(plan.master_of[gid])
        plan.replica_nodes[gid] = sorted({*plan.replica_nodes[gid], node})
        message = f"vertex {gid} already present on node {node}"
        with pytest.raises(EngineError, match=message):
            reference.build_local_graphs(graph, part, plan)
        with pytest.raises(EngineError, match=message):
            build_local_graphs(graph, part, plan)

"""Array-native loading against the slot-at-a-time reference.

``repro.engine.construction.build_local_graphs`` computes every node's
layout with numpy group-bys and hands each ``LocalGraph`` its SoA image
at birth; ``tests/reference/construction.py`` is the
three-pass build it replaced, and it builds from the plan of the list
planner ``tests/reference/replication.py`` (the production planner's
CSR plan feeds the production build), so two independent pipelines
meet here.  Everything observable must be equal:
the slots (dataclass ``==``), the insertion orders that are send or
scan orders (``index_of``, ``replica_positions``), the masters' FT
levels the image holds against a walk of the reference's slots, the
image field for field (dtype, values, ``sync_plan`` key order)
against ``NodeTopology.build`` of the reference graph, and the report.
The two checks the reference made one slot at a time — no vertex twice
on a node, no edge endpoint without a copy — must survive as typed
errors.  And the build searches nothing: a copy lookup is a gather from
a gid table, and every sort is over keys of 16 bits or less (radix
passes, ``repro.utils.arrays.stable_order``).
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
from repro.errors import ConfigError, EngineError
from repro.ft import _recovery_common as common
from repro.ft.replication import NodeRows, plan_replication
from repro.graph import generators
from repro.graph.graph import Graph
from repro.partition import hash_edge_cut, hybrid_cut
from repro.partition.fennel import fennel_edge_cut
from repro.partition.grid_vertex_cut import grid_vertex_cut
from repro.partition.random_vertex_cut import random_vertex_cut
from tests.reference import activity
from tests.reference import construction as reference
from tests.reference import replication as reference_replication

PARTITIONERS = {
    "hash_edge_cut": hash_edge_cut,
    "fennel_edge_cut": fennel_edge_cut,
    "hybrid_cut": hybrid_cut,
    "random_vertex_cut": random_vertex_cut,
    "grid_vertex_cut": grid_vertex_cut,
}


def ft_config(level):
    return (FaultToleranceConfig(mode=FTMode.REPLICATION, ft_level=level)
            if level else FaultToleranceConfig(mode=FTMode.NONE, ft_level=0))


def plan_for(graph, part, level, seed=0):
    return plan_replication(graph, part, ft_config(level), seed=seed)


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


def assert_same_build(graph, part, level, seed) -> None:
    built, report = build_local_graphs(graph, part,
                                       plan_for(graph, part, level, seed))
    wanted, wanted_report = reference.build_local_graphs(
        graph, part, reference_replication.plan_replication(
            graph, part, ft_config(level), seed=seed))
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
        assert activity.active_gids(have) == (set(), set())
        assert_same_image(have.cached_topology, NodeTopology.build(want))
        # The FT levels the image born at load holds are what a slot
        # walk finds, and what the image read back finds.
        born = common.ft_levels(have)
        assert dict(zip(*(column.tolist() for column in born))) == \
            activity.ft_levels(want)
        have.invalidate_soa()
        assert_same_image(have.topology(), NodeTopology.build(want))
        assert all(np.array_equal(a, b)
                   for a, b in zip(common.ft_levels(have), born))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("partition", sorted(PARTITIONERS))
def test_equal_to_the_reference(partition, level, seed):
    graph = generators.power_law(300, alpha=2.0, seed=seed, avg_degree=5.0,
                                 selfish_frac=0.1)
    part = PARTITIONERS[partition](graph, 8, seed=seed)
    assert_same_build(graph, part, level, seed)


@pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
def test_equal_to_the_reference_at_ten_times_the_size(partition):
    graph = generators.power_law(3000, alpha=2.0, seed=5, avg_degree=8.0)
    part = PARTITIONERS[partition](graph, 8, seed=5)
    assert_same_build(graph, part, 1, 5)


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
        assert_same_build(graph, part, level, 1)


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
    assert_same_build(graph, part, level, seed)


class TestTypedFailures:
    @pytest.fixture(scope="class")
    def graph(self):
        return generators.power_law(120, alpha=2.0, seed=11, avg_degree=4.0)

    def test_edge_placed_where_an_endpoint_has_no_copy(self, graph):
        """A bare ``KeyError`` out of ``position_of`` before; and an
        unchecked gather from the gid table would silently link
        position -1, the node's last copy."""
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

    def test_edge_placed_where_its_target_has_no_copy(self, graph):
        """The target's lookup is checked too: the edge moves to a node
        that holds its source but not its target."""
        part = hybrid_cut(graph, 4, seed=1)
        plan = plan_for(graph, part, 0)

        def holds(gid, node):
            return (node == plan.master_of[gid]
                    or node in plan.replica_nodes[gid])
        eid, node = next(
            (eid, node) for eid in range(graph.num_edges)
            for node in range(4)
            if holds(graph.sources[eid], node)
            and not holds(graph.targets[eid], node))
        edge_node = np.array(part.edge_node)
        edge_node[eid] = node
        corrupted = dataclasses.replace(part, edge_node=edge_node)
        gid = int(graph.targets[eid])
        with pytest.raises(EngineError,
                           match=f"vertex {gid} has no copy on node {node}"):
            build_local_graphs(graph, corrupted, plan)

    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    def test_replica_listed_twice_on_a_later_node(self, graph, partition):
        """Two replicas of one vertex on one node other than node 0 (the
        first node the build fills its table for)."""
        part = PARTITIONERS[partition](graph, 4, seed=1)
        plan = plan_for(graph, part, 1)
        rows = plan.replica_nodes
        gid, node = next((gid, int(node)) for gid in range(graph.num_vertices)
                         for node in rows[gid] if node != 0)
        at = rows.ptr[gid] + np.searchsorted(rows[gid], node)
        corrupted = dataclasses.replace(plan, replica_nodes=NodeRows(
            rows.ptr + (np.arange(rows.ptr.size) > gid),
            np.insert(rows.nodes, at, node)))
        assert corrupted.replica_nodes[gid].tolist().count(node) == 2
        with pytest.raises(EngineError, match=(
                f"vertex {gid} already present on node {node}")):
            build_local_graphs(graph, part, corrupted)

    @pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
    def test_master_inside_its_own_replica_set(self, graph, partition):
        """The planner validates at every ``ft_level``, so it cannot
        hand this plan over; construction still refuses it on its own,
        as the reference's per-slot ``add_slot`` did."""
        part = PARTITIONERS[partition](graph, 4, seed=1)
        plan = plan_for(graph, part, 0)
        gid = 17
        node = int(plan.master_of[gid])
        rows = plan.replica_nodes
        at = rows.ptr[gid] + np.searchsorted(rows[gid], node)
        corrupted = dataclasses.replace(plan, replica_nodes=NodeRows(
            rows.ptr + (np.arange(rows.ptr.size) > gid),
            np.insert(rows.nodes, at, node)))
        assert corrupted.replica_nodes[gid].tolist() == sorted(
            {*rows[gid].tolist(), node})
        wanted = reference_replication.plan_replication(
            graph, part, ft_config(0))
        wanted.replica_nodes[gid] = sorted({*wanted.replica_nodes[gid], node})
        message = f"vertex {gid} already present on node {node}"
        with pytest.raises(EngineError, match=message):
            reference.build_local_graphs(graph, part, wanted)
        with pytest.raises(EngineError, match=message):
            build_local_graphs(graph, part, corrupted)
        with pytest.raises(ConfigError, match=(
                f"vertex {gid}: master node {node} also in replicas")):
            corrupted.validate()


@pytest.fixture
def numpy_calls(monkeypatch):
    """The numpy searches and sorts a call makes, as ``(name, key
    dtype)``."""
    calls: list[tuple[str, np.dtype]] = []

    def spying(name):
        real = getattr(np, name)

        def spy(keys, *args, **kwargs):
            calls.append((name, np.asarray(keys).dtype))
            return real(keys, *args, **kwargs)
        monkeypatch.setattr(np, name, spy)

    for name in ("searchsorted", "isin", "sort", "argsort", "lexsort",
                 "unique"):
        spying(name)
    return calls


@pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
def test_the_build_searches_nothing_and_sorts_small_keys(partition,
                                                         numpy_calls):
    """No ``searchsorted`` or ``isin`` (a copy lookup is a gather), and
    each ``argsort`` is a radix pass over a 16-bit or narrower key.  A
    ``searchsorted`` put back into a copy lookup fails this, and so does
    a comparison ``argsort`` of the edges' positions or the gids."""
    graph = generators.power_law(3000, alpha=2.0, seed=5, avg_degree=8.0)
    part = PARTITIONERS[partition](graph, 8, seed=5)
    plan = plan_for(graph, part, 2, seed=5)
    numpy_calls.clear()
    build_local_graphs(graph, part, plan)
    assert {name for name, _ in numpy_calls} == {"argsort"}
    assert all(dtype.itemsize <= 2 for _, dtype in numpy_calls), \
        numpy_calls

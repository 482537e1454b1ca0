"""Local-graph construction tests: edges land once, positions recorded,
mirror full state is faithful (invariants P3/P7 groundwork)."""

from __future__ import annotations

import pytest

from repro.config import FaultToleranceConfig, FTMode
from repro.engine.construction import build_local_graphs
from repro.engine.state import Role
from repro.ft.replication import plan_replication
from repro.graph import generators
from repro.partition import hash_edge_cut, hybrid_cut


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(300, alpha=2.0, seed=31, avg_degree=5.0,
                                selfish_frac=0.1)


def build(graph, part, level=1):
    cfg = (FaultToleranceConfig(mode=FTMode.REPLICATION, ft_level=level)
           if level else FaultToleranceConfig(mode=FTMode.NONE, ft_level=0))
    plan = plan_replication(graph, part, cfg)
    return plan, build_local_graphs(graph, part, plan)


class TestEdgeCutConstruction:
    def test_each_edge_once_at_target_master(self, graph):
        part = hash_edge_cut(graph, 6)
        plan, (locals_, _) = build(graph, part)
        seen = set()
        for node, lg in locals_.items():
            for slot in lg.iter_slots():
                for src_pos, _w in slot.in_edges:
                    src = lg.slots[src_pos]
                    seen.add((src.gid, slot.gid))
                    # in-edges only at the target's master node
                    assert slot.is_master
                    assert node == int(part.master_of[slot.gid])
        expected = set(zip(graph.sources.tolist(), graph.targets.tolist()))
        assert seen == expected

    def test_out_edges_mirror_in_edges(self, graph):
        part = hash_edge_cut(graph, 6)
        _, (locals_, _) = build(graph, part)
        for lg in locals_.values():
            for slot in lg.iter_slots():
                for dst_pos in slot.out_edges:
                    dst = lg.slots[dst_pos]
                    src_positions = [p for p, _ in dst.in_edges]
                    assert lg.position_of(slot.gid) in src_positions

    def test_positions_recorded_in_meta(self, graph):
        part = hash_edge_cut(graph, 6)
        plan, (locals_, _) = build(graph, part)
        for v in range(graph.num_vertices):
            master = locals_[int(part.master_of[v])].slot_of(v)
            for node, pos in master.meta.replica_positions.items():
                replica = locals_[node].slots[pos]
                assert replica is not None and replica.gid == v
            assert master.meta.master_position == \
                locals_[int(part.master_of[v])].position_of(v)

    def test_mirror_full_edges_match_master(self, graph):
        part = hash_edge_cut(graph, 6)
        plan, (locals_, _) = build(graph, part)
        for v in range(graph.num_vertices):
            master_node = int(part.master_of[v])
            master = locals_[master_node].slot_of(v)
            for node in plan.mirror_nodes[v]:
                mirror = locals_[node].slot_of(v)
                assert mirror.role is Role.MIRROR
                assert mirror.full_edges is not None
                assert len(mirror.full_edges) == len(master.in_edges)
                for (gid, pos, w), (mpos, mw) in zip(mirror.full_edges,
                                                     master.in_edges):
                    assert pos == mpos and w == mw
                    assert locals_[master_node].slots[pos].gid == gid

    def test_mirror_meta_is_copy(self, graph):
        part = hash_edge_cut(graph, 6)
        plan, (locals_, _) = build(graph, part)
        v = next(v for v in range(graph.num_vertices)
                 if plan.mirror_nodes[v].size)
        master = locals_[int(part.master_of[v])].slot_of(v)
        mirror = locals_[plan.mirror_nodes[v][0]].slot_of(v)
        assert mirror.meta is not master.meta
        assert mirror.meta.replica_positions == \
            master.meta.replica_positions

    def test_degrees_replicated(self, graph):
        part = hash_edge_cut(graph, 6)
        _, (locals_, _) = build(graph, part)
        for lg in locals_.values():
            for slot in lg.iter_slots():
                assert slot.out_degree == graph.out_degree(slot.gid)
                assert slot.in_degree == graph.in_degree(slot.gid)


class TestVertexCutConstruction:
    def test_each_edge_once_at_assigned_node(self, graph):
        part = hybrid_cut(graph, 6)
        _, (locals_, _) = build(graph, part)
        count = 0
        for node, lg in locals_.items():
            for slot in lg.iter_slots():
                for src_pos, _w in slot.in_edges:
                    count += 1
        assert count == graph.num_edges

    def test_edges_on_assigned_nodes(self, graph):
        part = hybrid_cut(graph, 6)
        _, (locals_, _) = build(graph, part)
        per_node = {node: set() for node in locals_}
        for node, lg in locals_.items():
            for slot in lg.iter_slots():
                for src_pos, _w in slot.in_edges:
                    per_node[node].add((lg.slots[src_pos].gid, slot.gid))
        for eid in range(graph.num_edges):
            node = int(part.edge_node[eid])
            pair = (int(graph.sources[eid]), int(graph.targets[eid]))
            assert pair in per_node[node]

    def test_no_full_edges_under_vertex_cut(self, graph):
        part = hybrid_cut(graph, 6)
        _, (locals_, _) = build(graph, part)
        for lg in locals_.values():
            for slot in lg.iter_slots():
                assert slot.full_edges is None


class TestReport:
    def test_census_classes(self, graph):
        part = hash_edge_cut(graph, 6)
        _, (_, rep) = build(graph, part)
        assert rep.num_vertices == graph.num_vertices
        assert rep.replica_less_selfish > 0
        assert 0 <= rep.extra_replica_fraction < 0.5
        assert rep.ft_replicas > 0

    def test_no_ft_mode_has_no_ft_replicas(self, graph):
        part = hash_edge_cut(graph, 6)
        _, (_, rep) = build(graph, part, level=0)
        assert rep.ft_replicas == 0

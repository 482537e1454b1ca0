"""The masters' FT levels, read as columns, against a slot walk.

``masters_below`` and ``min_ft_level`` (``repro.ft._recovery_common``)
reduce the levels :func:`~repro.ft._recovery_common.ft_levels` reads
off each node's image — the mirrors in a master's sync plan — or, with
no image cached, off its metadata columns.  Both reads must equal the
per-slot walk of ``meta.ft_level`` in ``tests/reference/activity.py``,
in position order, on three cuts and K in {1, 2}, as loaded and after
each writer of the metadata: a Rebirth, a Migration, an FT repair and a
drain (joins and drains run on edge-cuts only).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import make_engine
from repro.ft import _recovery_common as common
from repro.ft import ladder
from repro.graph import generators
from tests.reference import activity

NUM_NODES = 5
EDGE_CUTS = ["hash_edge_cut", "fennel_edge_cut"]
SCENARIOS = ["loaded", "rebirth", "migration", "ft_repair", "drain"]
CASES = [(partition, k, scenario)
         for partition in [*EDGE_CUTS, "hybrid_cut"] for k in (1, 2)
         for scenario in SCENARIOS
         if scenario != "drain" or partition in EDGE_CUTS]


def _engine(scenario: str, partition: str, k: int, seed: int, node: int,
            picks: list[int]):
    graph = generators.power_law(120, alpha=2.0, seed=seed, avg_degree=4.0)
    kw = dict(num_nodes=NUM_NODES, partition=partition, ft_level=k,
              max_iterations=4, seed=seed)
    if scenario == "drain":
        engine = make_engine(graph, "pagerank",
                             membership=[(1, "drain", node)], **kw)
        engine.run(max_iterations=8)  # the moves take a few barriers
        assert node not in engine.local_graphs
        return engine
    engine = make_engine(graph, "pagerank",
                         num_standby=1 if scenario == "rebirth" else 0,
                         **kw)
    if scenario == "loaded":
        return engine
    engine.run(max_iterations=2)
    if scenario == "ft_repair":
        # Raise some masters past K: fresh replicas and mirrors on live
        # nodes, each master's plan and metadata copies rewritten.
        gids = sorted({pick % graph.num_vertices for pick in picks})
        common.restore_ft_level(engine, gids, "oracle", k=k + 1)
        assert all(engine.local_graphs[engine.master_node_of[gid]]
                   .slot_of(gid).meta.ft_level == k + 1 for gid in gids)
        return engine
    engine.cluster.crash(node)
    ladder.recover(engine, (node,))
    assert engine.recoveries[-1].strategy == scenario
    return engine


def _pairs(levels) -> list[tuple[int, int]]:
    gids, level = levels
    assert gids.dtype == level.dtype == np.int64
    return list(zip(gids.tolist(), level.tolist()))


@pytest.mark.parametrize("partition,k,scenario", CASES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16), node=st.integers(0, NUM_NODES - 1),
       picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=12))
def test_ft_levels_equal_the_slot_walk(partition, k, scenario, seed, node,
                                       picks):
    engine = _engine(scenario, partition, k, seed, node, picks)
    alive = engine._alive()
    graphs = [engine.local_graphs[n] for n in alive]
    # The production reads first (a walk stamps every slot): the image
    # where one is cached, then the metadata columns, then the image
    # read back out of the slots.
    reads = []
    for lg in graphs:
        cached = lg.cached_topology is not None
        first = _pairs(common.ft_levels(lg))
        lg.invalidate_soa()
        columns = _pairs(common.ft_levels(lg))
        lg.topology()
        rebuilt = _pairs(common.ft_levels(lg))
        assert first == columns == rebuilt
        reads.append((cached, first))
    below = {j: common.masters_below(engine, alive, j)
             for j in range(k + 3)}
    lowest = {cap: common.min_ft_level(engine, cap) for cap in range(k + 3)}
    walks = [list(activity.ft_levels(lg).items()) for lg in graphs]
    assert [pairs for _, pairs in reads] == walks
    if scenario in ("loaded", "rebirth"):
        # The images born at load and at Rebirth survive to the read.
        assert all(cached for cached, _ in reads)
    levels = [level for walk in walks for _, level in walk]
    widest = max(len(walk) for walk in walks)
    for j, got in below.items():
        assert got == (sorted(gid for walk in walks
                              for gid, level in walk if level < j), widest)
    for cap, got in lowest.items():
        assert got == min([cap, *levels])

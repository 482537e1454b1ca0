"""``place_replicas`` against the per-row writer it replaced.

One batched call — a batch packed per master node, one placement, one
registration pass — must leave exactly what the per-row writer
(``tests/reference/placement.py``) leaves when called once per gid in
order: positions, every metadata copy with its dict order, the committed
columns, the ``RECOVERY`` traffic, ``sync_targets()``, which images are
dropped and the images rebuilt from the slots.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import make_engine
from repro.cluster.network import MessageKind
from repro.engine.local_graph import DYNAMIC
from repro.ft import _recovery_common as common
from repro.graph import generators
from tests.reference.activity import active_gids
from tests.reference.placement import create_replica
from tests.test_construction_equivalence import assert_same_image

NUM_NODES = 4
GRAPH = generators.power_law(120, alpha=2.0, seed=5, avg_degree=5.0,
                             selfish_frac=0.1)


def _engine(partition: str, k: int, supersteps: int):
    engine = make_engine(GRAPH, "pagerank", num_nodes=NUM_NODES,
                         ft_level=k, partition=partition, num_standby=0,
                         max_iterations=8)
    engine.run(max_iterations=supersteps)
    return engine


def _state(engine) -> dict:
    """Everything the writer may touch, node by node."""
    net = engine.cluster.network.totals
    out = {"recovery": (net.msgs_by_kind[MessageKind.RECOVERY],
                        net.bytes_by_kind[MessageKind.RECOVERY])}
    for node, lg in engine.local_graphs.items():
        out[node] = (
            list(lg.index_of.items()),
            lg.cached_topology is None,
            {name: getattr(lg, name).tolist() for name in DYNAMIC},
            *map(sorted, active_gids(lg)),
            [(slot.gid, slot.role, slot.mirror_id, slot.master_node,
              slot.ft_only, slot.selfish, slot.out_degree, slot.in_degree,
              slot.in_edges, slot.out_edges, slot.full_edges)
             for slot in lg.iter_slots()],
            [(slot.gid, list(slot.meta.replica_positions.items()),
              slot.meta.mirror_nodes, slot.meta.master_node,
              slot.meta.master_position, slot.meta.sync_targets())
             for slot in lg.iter_slots() if slot.meta is not None])
    return out


@settings(max_examples=30, deadline=None)
@given(partition=st.sampled_from(["hash_edge_cut", "random_vertex_cut",
                                  "hybrid_cut"]),
       k=st.sampled_from([1, 2]), node=st.integers(0, NUM_NODES - 1),
       supersteps=st.integers(0, 2), data=st.data())
def test_one_batch_equals_one_row_per_gid(partition, k, node, supersteps,
                                          data):
    rows, batch = (_engine(partition, k, supersteps) for _ in range(2))
    gids = data.draw(st.lists(st.sampled_from(
        [gid for gid in range(GRAPH.num_vertices)
         if gid not in rows.local_graphs[node].index_of]),
        min_size=2, max_size=16, unique=True))
    assume(len({rows.master_node_of[gid] for gid in gids}) > 1)
    for engine in (rows, batch):
        for lg in engine.local_graphs.values():
            lg.topology()  # every image cached: the drops are compared

    nbytes = sum(create_replica(rows, gid, node)[1] for gid in gids)
    assert common.place_replicas(batch, node, gids, False) == nbytes

    assert _state(batch) == _state(rows)
    for n in batch.local_graphs:
        assert_same_image(batch.local_graphs[n].topology(),
                          rows.local_graphs[n].topology())

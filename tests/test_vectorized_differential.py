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
        "active": {node: (sorted(lg.active_masters),
                          sorted(lg.active_others))
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

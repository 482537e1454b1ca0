"""Dump everything a refactor must leave bit-identical, as sorted JSON.

Usage (ROADMAP item 6: every refactor PR runs this against its parent)::

    PYTHONPATH=<parent>/src python tests/tools/behaviour_dump.py --out parent.json
    PYTHONPATH=<change>/src python tests/tools/behaviour_dump.py --out change.json
    cmp parent.json change.json

A fixed, seeded matrix of simulator runs — {pagerank, sssp, cc, cd, als}
x {hash edge-cut, random vertex-cut, hybrid-cut} x {clean, Rebirth,
Migration, safety net, CKPT, a mid-compute chaos crash in a later and
in the first superstep, ``vectorized=False``, ``combining=False``, the
same node reborn twice, two nodes reborn together at ``ft_level=2``, a
second crash during recovery} plus
one edge-mutating program and four elastic PageRank runs (the
membership acceptance schedule — join x2, flap, drain, leader killed
mid-recovery — under an adaptive floor of 1-3; a flap-only run on
edge-cut and on vertex-cut; an adaptive-floor run with one kill) —
each dumped as: committed values, traffic by kind, ``syncs_elided``,
iteration stats, every ``RecoveryStats``, the membership report,
counters, gauges and every non-wall field of every trace event.
Floats are written by ``repr`` (JSON's default), so ``cmp`` is a bit
comparison.
Only the public API and documented engine attributes are touched, so
the same file runs under an older tree's ``PYTHONPATH``.

``--quick`` keeps one scenario rotation per (algorithm, partition)
instead of the full cross product (tier-1 smoke, CI).
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json

import numpy as np

from repro.api import make_engine
from repro.chaos import ChaosController, FailureSchedule
from repro.engine.vertex_program import VertexProgram
from repro.graph import generators
from repro.obs import Tracer

NUM_NODES = 4

#: algorithm -> (graph factory, algorithm kwargs, supersteps)
WORKLOADS = {
    "pagerank": (lambda: generators.power_law(
        200, alpha=2.0, seed=77, avg_degree=5.0, selfish_frac=0.1), {}, 6),
    "sssp": (lambda: generators.road_network(10, 10, seed=7),
             {"source": 0}, 20),
    "cc": (lambda: generators.social_network(
        150, avg_degree=4.0, seed=7, reciprocity=1.0), {}, 8),
    "cd": (lambda: generators.community_graph(
        3, 30, p_in=0.25, p_out_edges=1, seed=7), {}, 6),
    "als": (lambda: generators.bipartite(80, 24, edges_per_user=5, seed=7),
            {"num_users": 80, "rank": 2}, 5),
}
PARTITIONS = ("hash_edge_cut", "random_vertex_cut", "hybrid_cut")

#: scenario -> (engine kwargs, scheduled failures, chaos schedule
#: factory or None)
SCENARIOS = {
    "clean": ({}, (), None),
    "rebirth": (dict(num_standby=2),
                ((2, (1,), "compute"), (3, (2,), "after_commit")), None),
    "migration": (dict(recovery="migration", num_standby=0),
                  ((2, (1,), "compute"),), None),
    "safety_net": (dict(safety_checkpoint_interval=2, num_standby=2),
                   ((3, (0, 1), "compute"),), None),
    "ckpt": (dict(ft_mode="checkpoint", checkpoint_interval=2,
                  num_standby=1), ((3, (1,), "compute"),), None),
    "chaos_gather": (dict(num_standby=1), (), lambda: FailureSchedule(
        seed=5).crash(2, phase="gather", target=3)),
    # Before node 3's first turn: it is lost without ever being touched.
    "chaos_first_touch": (dict(num_standby=1), (), lambda: FailureSchedule(
        seed=5).crash(0, phase="gather", target=3)),
    "scalar": (dict(vectorized=False, num_standby=1),
               ((2, (1,), "compute"),), None),
    "raw_gather": (dict(combining=False, num_standby=1),
                   ((2, (1,), "compute"),), None),
    # Rebirth of a node that was itself reborn.
    "rebirth_twice": (dict(num_standby=2),
                      ((2, (1,), "compute"), (4, (1,), "after_commit")),
                      None),
    # Two newbies at once: survivors re-send the copies a dead master
    # lost on the *other* crashed node.
    "rebirth_k2_pair": (dict(ft_level=2, num_standby=2),
                        ((3, (1, 2), "compute"),), None),
    # A second crash while recovery is in progress, on a non-leader (the
    # leader is node 1 here), joins the failed set.
    "recovery_crash": (dict(ft_level=2, num_standby=2), (),
                       lambda: FailureSchedule(seed=5)
                       .crash(2, phase="gather", target=3)
                       .crash(2, phase="recovery", target=2)),
}

ADAPTIVE = dict(ft_level_min=1, ft_level_max=3)
#: Elastic PageRank rows, same shape: scenario -> (..., partitions).
ELASTIC = {
    "acceptance": (dict(num_nodes=6, num_standby=3, max_iterations=14,
                        **ADAPTIVE), (), lambda: (
        FailureSchedule(seed=23).join(2, count=2).flap(4, target=2)
        .drain(6, target="most-loaded")
        .crash(8, phase="gather", target="random")
        .crash(8, phase="recovery", target="leader")),
        ("hash_edge_cut",)),
    "flap_only": (dict(membership=((2, "flap", 1),)), (), None,
                  ("hash_edge_cut", "random_vertex_cut")),
    "adaptive_kill": (dict(num_standby=2, max_iterations=12, **ADAPTIVE),
                      ((3, (2,), "compute"),), None, ("hash_edge_cut",)),
}


class DecayingDegree(VertexProgram):
    """The edge-mutating program: sums in-edge weights, then halves
    every gathered edge's weight (Section 4.3)."""

    name = "decaying-degree"
    history_free = True
    mutates_edges = True

    def initial_value(self, vid, ctx):
        return 0.0

    def gather_init(self):
        return 0.0

    def gather(self, acc, src, weight, dst_vid):
        return acc + weight

    def gather_sum(self, a, b):
        return (a or 0.0) + (b or 0.0)

    def update_edge(self, src, dst_vid, weight, ctx):
        return weight * 0.5

    def apply(self, vid, old_value, acc, ctx):
        return acc or 0.0


def _plain(obj):
    """JSON-ready image of a result field: exact floats, string keys."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(_plain(k)): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_plain(v) for v in obj]
        return sorted(items, key=repr) if isinstance(
            obj, (set, frozenset)) else items
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, enum.Enum):
        return obj.value
    return obj


def dump_run(graph, algorithm, partition, iterations, algorithm_kwargs,
             scenario):
    """Run one configuration; returns its observable behaviour."""
    kwargs, failures, chaos = ({**SCENARIOS, **ELASTIC}[scenario])[:3]
    tracer = Tracer()
    engine = make_engine(
        graph, algorithm,
        **{"num_nodes": NUM_NODES, "partition": partition,
           "max_iterations": iterations, "seed": 11, "tracer": tracer,
           "algorithm_kwargs": algorithm_kwargs, **kwargs})
    for failure in failures:
        engine.schedule_failure(*failure)
    if chaos is not None:
        ChaosController(chaos()).attach(engine)
    result = engine.run()
    totals = engine.cluster.network.totals
    return _plain({
        "values": result.values,
        "num_iterations": result.num_iterations,
        "halted_early": result.halted_early,
        "total_sim_time_s": result.total_sim_time_s,
        "traffic": {"msgs": totals.msgs_by_kind,
                    "bytes": totals.bytes_by_kind,
                    "batches": totals.batches_by_kind},
        "combined_records": result.combined_records,
        "syncs_elided": engine.syncs_elided,
        "iteration_stats": result.iteration_stats,
        "recoveries": result.recoveries,
        "fallbacks": result.fallbacks,
        "membership": result.membership,
        "counters": engine.metrics.counters(),
        "gauges": engine.metrics.gauges(),
        "trace": [{k: v for k, v in event.items() if "wall" not in k}
                  for event in tracer.events],
    })


def matrix(quick: bool):
    """``(label, dump_run arguments)`` for every configuration."""
    scenarios = list(SCENARIOS)
    cell = 0
    for algorithm, (make_graph, algo_kwargs, iterations) in \
            WORKLOADS.items():
        graph = make_graph()
        for partition in PARTITIONS:
            # Quick: rotate through the scenarios, one per cell.
            chosen = ([scenarios[cell % len(scenarios)]] if quick
                      else scenarios)
            cell += 1
            for scenario in chosen:
                yield (f"{algorithm}/{partition}/{scenario}",
                       (graph, algorithm, partition, iterations,
                        algo_kwargs, scenario))
    make_graph, _kwargs, iterations = WORKLOADS["pagerank"]
    graph = make_graph()
    for scenario, (*_, partitions) in ELASTIC.items():
        for partition in partitions:
            yield (f"pagerank/{partition}/{scenario}",
                   (graph, "pagerank", partition, iterations, {}, scenario))
    graph = generators.power_law(60, alpha=2.0, seed=23, avg_degree=4.0)
    for partition in PARTITIONS[:1] if quick else PARTITIONS:
        for scenario in ("clean", "rebirth", "ckpt"):
            yield (f"decaying-degree/{partition}/{scenario}",
                   (graph, DecayingDegree(), partition, 4, None, scenario))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--quick", action="store_true",
                        help="one scenario per (algorithm, partition)")
    args = parser.parse_args(argv)
    dump = {label: dump_run(*run_args)
            for label, run_args in matrix(args.quick)}
    with open(args.out, "w") as fh:
        json.dump(dump, fh, sort_keys=True, indent=1, default=repr)
        fh.write("\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Online query serving: read the graph while it is still computing.

The K+1-way replication that makes recovery cheap also makes every
vertex readable from K+1 places.  This demo (DESIGN.md §13) runs
PageRank on a simulated cluster while a seeded open-loop workload —
Poisson arrivals, Zipf-skewed keys, a mix of point / neighborhood /
top-K queries — is served *concurrently* with the supersteps:

* every response is snapshot-isolated at the last committed superstep
  (tagged with it, bit-equal to the value committed there);
* reads are spread across master + replicas by a seeded round-robin
  router (per-replica load is part of the report);
* two nodes are chaos-killed mid-run: reads issued during the recovery
  window fall back to surviving replicas and are tagged
  ``degraded=True`` — and vertices whose only committed copy is
  momentarily unavailable answer with an explicit miss, never a stale
  value;
* a serving-free replay of the identical job then re-checks every
  response against the committed history.

Run with::

    python examples/query_serving.py
"""

from __future__ import annotations

from collections import Counter

from repro.exec.base import BackendSpec
from repro.exec.simulator import SimulatorBackend
from repro.graph import generators
from repro.serve import KIND_NAMES, check_responses, replay_committed_history

NUM_NODES = 5
ITERATIONS = 10
NUM_QUERIES = 20_000


def main() -> None:
    graph = generators.power_law(800, alpha=2.0, seed=5, avg_degree=5.0,
                                 name="serve-demo")
    spec = BackendSpec(
        algorithm="pagerank", num_nodes=NUM_NODES, ft_level=2,
        max_iterations=ITERATIONS, num_standby=3,
        failures=((3, (0, 1), "compute"),),
        serve=(("num_queries", NUM_QUERIES),
               ("qps", float(NUM_QUERIES)),       # whole run ~1 horizon
               ("seed", 11), ("zipf_s", 1.1),
               ("neighborhood_frac", 0.05), ("topk_frac", 0.02)))

    print(f"{NUM_NODES} nodes, |V|={graph.num_vertices}, ft_level=2, "
          f"{ITERATIONS} PageRank iterations")
    print(f"serving {NUM_QUERIES} queries concurrently; nodes 0 and 1 "
          f"are killed at superstep 3\n")

    result = SimulatorBackend().run(graph, spec)
    report = result.extra["serve"]
    responses = result.extra["serve_responses"]

    kinds = Counter(KIND_NAMES[r.kind] for r in responses)
    print("served:", dict(kinds))
    print(f"degraded reads : {report['degraded_reads']} "
          f"(recovery window / dead-copy fallback)")
    print(f"misses         : {report['misses']} "
          f"(no alive committed copy — explicit, never stale)")
    print(f"latency        : p50 {report['p50_us']:.1f}us, "
          f"p99 {report['p99_us']:.1f}us")
    print(f"per-replica load: {report['per_replica_load']}")

    # ``responses`` is a read-only view over response columns: it
    # indexes, slices and iterates, building each row on demand.
    for resp in responses[:3]:
        print(f"  {KIND_NAMES[resp.kind]:<12} vertex {resp.gid:>4} "
              f"superstep {resp.superstep:>2} node {resp.replica_node}")
    sample = next(r for r in responses
                  if r.degraded and r.kind == 0 and r.value is not None)
    print(f"\na degraded read: vertex {sample.gid} -> {sample.value:.6f} "
          f"(superstep {sample.superstep}, served by node "
          f"{sample.replica_node})")

    print("\nreplaying the identical job without serving...")
    history = replay_committed_history(graph, spec)
    mismatches = check_responses(responses, history)
    assert mismatches == [], mismatches[:3]
    print(f"all {len(responses)} responses bit-equal to the committed "
          f"value at their tagged superstep — zero uncommitted reads.")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Real-process demo: Imitator's replication protocol over OS processes.

A thin wrapper over :class:`repro.exec.mp.MultiprocessingBackend` —
the same superstep protocol the deterministic simulator runs, executed
across *actual* worker processes connected by pipes:

* the graph is hash edge-cut partitioned across N worker processes,
  each forked with its partition (masters, replicas, mirrors);
* every PageRank superstep, workers compute their masters locally and
  ship columnar sync batches to the replicas' hosts, meeting at the
  coordinator's commit barrier;
* one worker is killed mid-run with a real ``SIGKILL``; the
  coordinator detects the death via its heartbeat/sentinel loop and
  runs the engine's own recovery (here: Rebirth) over the replicas the
  *surviving* workers hold (no disk involved), re-forks the workers
  from the recovered state, and the job finishes with exactly the
  same ranks as a clean run;
* a simulator run of the identical spec cross-checks the distributed
  execution value-for-value and message-for-message.

Run with::

    python examples/multiprocessing_cluster.py
"""

from __future__ import annotations

from repro.exec.base import BackendSpec
from repro.exec.mp import MultiprocessingBackend
from repro.exec.simulator import SimulatorBackend
from repro.graph import generators

NUM_WORKERS = 4
ITERATIONS = 8
KILL_AT_ITERATION = 4
KILLED_WORKER = 2


def main() -> None:
    graph = generators.power_law(400, alpha=2.0, seed=5, avg_degree=5.0,
                                 name="mp-demo")
    print(f"{NUM_WORKERS} worker processes, |V|={graph.num_vertices}, "
          f"|E|={graph.num_edges}, {ITERATIONS} PageRank iterations")
    spec = BackendSpec(algorithm="pagerank", num_nodes=NUM_WORKERS,
                       ft_level=1, max_iterations=ITERATIONS)

    print("\nclean run (multiprocessing backend):")
    with MultiprocessingBackend() as backend:
        clean = backend.run(graph, spec)
    print(f"  done — {clean.total_msgs} logical messages in "
          f"{clean.total_batches} batches across {clean.iterations} "
          f"supersteps")

    print("\nrun with a SIGKILLed worker:")
    kill_spec = BackendSpec(
        algorithm="pagerank", num_nodes=NUM_WORKERS, ft_level=1,
        max_iterations=ITERATIONS,
        failures=((KILL_AT_ITERATION, (KILLED_WORKER,), "compute"),))
    with MultiprocessingBackend() as backend:
        survived = backend.run(graph, kill_spec)
    event, = survived.extra["recoveries"]
    print(f"  worker {KILLED_WORKER} killed at iteration "
          f"{KILL_AT_ITERATION}; {survived.failures_recovered} recovery "
          f"event ({event['strategy']} of ranks {event['failed_nodes']}) "
          f"rebuilt its partition from surviving replicas")

    worst = max(abs(clean.values[v] - survived.values[v])
                for v in clean.values)
    print(f"\nmax |rank difference| clean vs recovered: {worst:.2e}")
    assert worst == 0.0
    print("identical results — replicas were a complete backup.")

    print("\ncross-backend check (deterministic simulator, same spec):")
    sim = SimulatorBackend().run(graph, spec)
    assert sim.values == clean.values
    assert sim.total_msgs == clean.total_msgs
    assert sim.msgs_by_kind == clean.msgs_by_kind
    print(f"  simulator agrees bit-for-bit: {sim.total_msgs} logical "
          f"messages, identical values on all {len(sim.values)} vertices.")


if __name__ == "__main__":
    main()

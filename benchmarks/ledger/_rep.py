"""One repetition in a fresh process: ``python -m benchmarks.ledger._rep
MODE WORKLOAD SEED [--quick] [--history PATH]`` prints one JSON line.

A fresh process per repetition keeps the previous run's engine out of
the cyclic GC's way (a still-referenced ``Engine`` gave 2x swings on one
spec) and makes ``ru_maxrss`` the peak of exactly one run.

Modes: ``e2e`` is the measured run, tracing off; ``traced`` yields the
per-layer numbers; ``oracle`` runs the failure-free, read-free simulator
twin (and, for a serving workload, writes the committed history reads
are checked against to ``--history``).
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import pickle
import resource
import sys
import time
from dataclasses import replace

from benchmarks.ledger import layers, probes, reference, workloads


def _backend(name: str):
    from repro.exec import MultiprocessingBackend, SimulatorBackend

    return (SimulatorBackend() if name == "simulator"
            else MultiprocessingBackend())


def _warm_up(backend_name: str, spec) -> None:
    """Lazy imports and numpy first-call paths are paid once per process,
    not once per job: run the spec on a toy graph first, so ``setup_s``
    measures partition, replication and construction only."""
    from repro.graph import generators

    toy = generators.power_law(256, alpha=2.0, seed=0, avg_degree=8.0)
    backend = _backend(backend_name)
    try:
        backend.run(toy, workloads.oracle_spec(spec))
    finally:
        backend.close()


def _pin_to_one_cpu(slot: int) -> None:
    """Pin this process, and so the coordinator and every worker it
    forks, to one CPU; successive repetitions take successive CPUs.

    Two workers that need two free CPUs at once measure the shared host's
    scheduler (README, "Noise"); time-sliced on one CPU the job is as
    steady as a single process, and still runs every mp layer."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[slot % len(cpus)]})


def _peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child
    (Linux reports KiB)."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _timed_run(backend_name: str, graph, spec) -> tuple[dict, object]:
    """``backend.run(graph, spec)`` timed the way a user waits for it;
    returns (record, BackendRunResult)."""
    backend = _backend(backend_name)
    gc.collect()
    start = time.perf_counter()
    try:
        result = backend.run(graph, spec)
    finally:
        backend.close()
    total_s = time.perf_counter() - start
    record = {
        "total_s": total_s,
        "run_s": result.wall_s,
        "setup_s": total_s - result.wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "orphans": len(multiprocessing.active_children()),
        # Traffic counters: must repeat exactly, and match across backends.
        "counts": {
            "iterations": result.iterations,
            "total_msgs": result.total_msgs,
            "total_bytes": result.total_bytes,
            "total_batches": result.total_batches,
            "msgs_by_kind": dict(sorted(result.msgs_by_kind.items())),
            "syncs_elided": result.syncs_elided,
            "combined_records": result.combined_records,
            "failures_recovered": result.failures_recovered,
        },
    }
    record.update(_verdict(result.values, graph, spec))
    return record, result


def _verdict(values: dict, graph, spec) -> dict:
    array = reference.values_array(values, graph.num_vertices)
    return {"digest": reference.digest(array),
            "reference_ok": reference.matches_reference(array, graph, spec)}


def _read_mismatches(responses, history_path: str) -> int:
    from repro.serve.replay import check_responses

    with open(history_path, "rb") as fh:
        history = pickle.load(fh)  # written by this benchmark's oracle
    return len(check_responses(responses, history))


def run_e2e(workload, graph, spec, history_path) -> dict:
    record, result = _timed_run(workload.backend, graph, spec)
    serve = result.extra.get("serve")
    if serve is not None:
        record.update({
            "read_p50_us": serve["p50_us"],
            "read_p99_us": serve["p99_us"],
            "reads": serve["queries"],
            "read_mismatches": _read_mismatches(
                result.extra["serve_responses"], history_path),
        })
    return record


def run_oracle(workload, graph, spec, history_path) -> dict:
    record, _ = _timed_run("simulator", graph, workloads.oracle_spec(spec))
    if workload.serve:
        from repro.serve.replay import replay_committed_history

        history = replay_committed_history(graph, replace(spec, serve=()))
        with open(history_path, "wb") as fh:
            pickle.dump(history, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return record


def run_traced(workload, graph, spec, history_path) -> dict:
    if workload.backend != "simulator":
        return _traced_mp(graph, spec)
    metrics, responses, values = layers.run_traced(graph, spec)
    record = {"layers": metrics}
    record.update(_verdict(values, graph, spec))
    if responses is not None:
        metrics["serve.mismatches"] = _read_mismatches(responses,
                                                       history_path)
    del responses, values
    gc.collect()
    if workload.name == "pr_edgecut_sim":
        # The paper's Fig. 7 in wall-clock: the same job with no fault
        # tolerance at all, untraced, as the base of ft.overhead_ratio.
        base, _ = _timed_run("simulator", graph,
                             replace(spec, ft_mode="none"))
        metrics["ft.none_run_s"] = base["run_s"]
    if workload.name == "pr_hybridcut_sim":
        # Keeps the vertex-cut / Migration half visible: one traced
        # compute-phase kill recovered by migration (no standby).
        migration = layers.run_traced(graph, replace(
            spec, recovery="migration", num_standby=0,
            failures=((6, (1,), "compute"),)))[0]
        metrics["recovery.migration_protocol_s"] = (
            migration["recovery.protocol_s"])
    return record


def _traced_mp(graph, spec) -> dict:
    # Span-derived layers on this workload are the simulator twin's: the
    # same 2-node spec traced in-process (exec/mp.py emits no spans).
    metrics = layers.run_traced(graph, spec)[0]
    gc.collect()
    metrics.update(probes.probe_layers(graph, spec))
    gc.collect()
    # One real SIGKILL recovered by rebirth; values must still equal the
    # failure-free simulator twin's (checked by the parent via digest).
    killed, _ = _timed_run("multiprocessing", graph,
                           replace(spec, failures=((10, (1,), "compute"),)))
    metrics["mp.kill_run_s"] = killed["run_s"]
    metrics["mp.orphans"] = killed["orphans"]
    metrics["mp.kill_recovered"] = killed["counts"]["failures_recovered"]
    return {"layers": metrics, "digest": killed["digest"],
            "reference_ok": killed["reference_ok"]}


MODES = {"e2e": run_e2e, "oracle": run_oracle, "traced": run_traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger._rep")
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--history")
    parser.add_argument("--slot", type=int, default=0,
                        help="repetition number: picks the pinned CPU")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if workload.backend == "multiprocessing":
        _pin_to_one_cpu(args.slot)
    graph = workloads.make_graph(workload, args.seed, args.quick)
    spec = workloads.make_spec(workload, args.seed, args.quick)
    _warm_up(workload.backend, spec)
    record = MODES[args.mode](workload, graph, spec, args.history)
    record.update(vertices=graph.num_vertices, edges=graph.num_edges)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

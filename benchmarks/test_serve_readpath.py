"""Read-path benchmark: 100k-query serving under chaos, both backends.

The acceptance scenario for the online read-serving layer (DESIGN.md
§13): a seeded open-loop workload of 100 000 queries (Zipf keys, Poisson
arrivals, 5% neighborhood / 2% top-K) is served *concurrently* with a
PageRank run that loses three nodes to chaos kills — a double kill mid
compute and a single kill right after a commit.  Every response must be
bit-equal to the value committed at the superstep it is tagged with
(differential replay of the identical job without serving), uncommitted
reads must be zero, and reads degraded by recovery must say so.

Results — p50/p99 service latency, per-replica load, degraded/miss
counts — land in ``BENCH_serve_readpath.json`` for both the simulator
and the multiprocessing backend.

Gates:

* ``test_simulator_serves_bit_equal`` / ``test_multiprocessing_serves_
  bit_equal`` — zero mismatches against the committed-history replay,
  zero uncommitted reads, degraded reads present and flagged.

Latency is recorded, not gated: ``benchmarks/ledger`` is the perf
instrument (its ``serve_kill_sim`` workload times reads beside writes).
"""

from __future__ import annotations

import json
import multiprocessing
from pathlib import Path

import pytest

from repro.exec.base import BackendSpec
from repro.exec.simulator import SimulatorBackend
from repro.graph import generators
from repro.serve import check_responses, replay_committed_history

BENCH_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_serve_readpath.json"

NUM_VERTICES = 1000
NUM_QUERIES = 100_000

#: A double kill mid-compute, then a single kill after a commit —
#: exercises both detection paths on both backends (the multiprocessing
#: backend only supports these two phases).
FAILURES = ((2, (0, 1), "compute"), (5, (2,), "after_commit"))

SPEC = BackendSpec(
    algorithm="pagerank", num_nodes=5, ft_level=2, max_iterations=10,
    num_standby=3, failures=FAILURES,
    serve=(("num_queries", NUM_QUERIES), ("qps", float(NUM_QUERIES)),
           ("seed", 11), ("zipf_s", 1.1),
           ("neighborhood_frac", 0.05), ("topk_frac", 0.02)))

_STATE: dict[str, object] = {}


def _graph():
    if "graph" not in _STATE:
        _STATE["graph"] = generators.power_law(
            NUM_VERTICES, alpha=2.0, seed=7, avg_degree=5.0,
            name="serve-bench")
    return _STATE["graph"]


def _history():
    if "history" not in _STATE:
        _STATE["history"] = replay_committed_history(_graph(), SPEC)
    return _STATE["history"]


def _measure(backend_name: str) -> dict:
    key = f"run:{backend_name}"
    if key in _STATE:
        return _STATE[key]
    if backend_name == "simulator":
        result = SimulatorBackend().run(_graph(), SPEC)
    else:
        from repro.exec.mp import MultiprocessingBackend
        with MultiprocessingBackend() as backend:
            result = backend.run(_graph(), SPEC)
    mismatches = check_responses(result.extra["serve_responses"],
                                 _history())
    responses = result.extra["serve_responses"]
    record = dict(result.extra["serve"])
    record.update({
        "backend": backend_name,
        "mismatches": len(mismatches),
        "uncommitted_reads": len(mismatches),
        "failures_recovered": result.failures_recovered,
        "run_wall_s": result.wall_s,
        "responses_kept": len(responses),
    })
    _STATE[key] = record
    _STATE.setdefault("mismatches:" + backend_name, mismatches)
    _flush()
    return record


def _flush() -> None:
    runs = [_STATE[k] for k in sorted(_STATE) if k.startswith("run:")]
    BENCH_PATH.write_text(json.dumps(
        {"figure": "serve_readpath",
         "scenario": {
             "graph": f"power_law({NUM_VERTICES}, alpha=2.0, seed=7)",
             "algorithm": "pagerank", "nodes": 5, "ft_level": 2,
             "iterations": 10, "failures": [list(f) for f in FAILURES],
             "workload": dict(SPEC.serve)},
         "runs": runs},
        indent=2, sort_keys=True) + "\n")


def _assert_served_committed(record: dict) -> None:
    assert record["queries"] == NUM_QUERIES
    assert record["mismatches"] == 0, \
        _STATE["mismatches:" + record["backend"]][:3]
    assert record["uncommitted_reads"] == 0
    # Three nodes died: recovery windows must have degraded some reads.
    assert record["degraded_reads"] > 0
    # Reads spread across every worker (replicas are read capacity).
    assert sorted(record["per_replica_load"]) == list(range(5))
    assert record["p99_us"] > 0.0


def test_simulator_serves_bit_equal():
    record = _measure("simulator")
    _assert_served_committed(record)
    print(f"\nsimulator: {record['queries']} queries, "
          f"{record['degraded_reads']} degraded, "
          f"{record['misses']} misses, p50 {record['p50_us']:.1f}us, "
          f"p99 {record['p99_us']:.1f}us")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocessing backend requires the fork start method")
def test_multiprocessing_serves_bit_equal():
    record = _measure("multiprocessing")
    _assert_served_committed(record)
    print(f"\nmultiprocessing: {record['queries']} queries, "
          f"{record['degraded_reads']} degraded, "
          f"{record['misses']} misses, p50 {record['p50_us']:.1f}us, "
          f"p99 {record['p99_us']:.1f}us")


def test_load_is_spread_across_replicas():
    """Round-robin routing keeps any single node from absorbing the
    read traffic: the hottest node carries less than half of what a
    single-copy (master-only) design would put on the hottest master."""
    record = _measure("simulator")
    load = record["per_replica_load"]
    total = sum(load.values())
    assert max(load.values()) < 0.5 * total


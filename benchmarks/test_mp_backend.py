"""Scaling benchmark for the multiprocessing execution backend.

Measures real-parallelism wall-clock on the perf-hotpath PageRank
workload (``power_law(4000)``, 12 iterations): the deterministic
simulator against the multiprocessing backend at 1, 2 and 4 worker
processes, like with like — both backends run their default (array)
kernels.  Every run's committed values are bit-checked against the
simulator so a fast-but-wrong backend can never pass.  (The simulator
is timed around its whole ``run`` call, load included; a
multiprocessing point reports ``wall_s``, the supersteps alone.)

Results land in ``BENCH_mp_backend.json`` at the repo root, with the
host's ``cpu_count`` recorded alongside — the speedup gate
(``>=1.5x`` at 4 workers vs the simulator) only arms on hosts with at
least 4 CPUs, because forked workers cannot beat a single in-process
loop when they time-share one core; single-core hosts still record
honest numbers and run the parity checks.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.exec.base import BackendSpec
from repro.exec.mp import MultiprocessingBackend
from repro.exec.simulator import SimulatorBackend
from repro.graph import generators

BENCH_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_mp_backend.json"

GRAPH_N = 4000
ITERATIONS = 12
WORKER_COUNTS = (1, 2, 4)
SPEEDUP_FLOOR = 1.5

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocessing backend requires the fork start method")

_RESULTS: dict[str, dict] = {}
_GRAPH = None


def _graph():
    global _GRAPH
    if _GRAPH is None:
        _GRAPH = generators.power_law(GRAPH_N, alpha=2.0, seed=7,
                                      avg_degree=6.0, name="mp-bench")
    return _GRAPH


def _spec(num_nodes: int) -> BackendSpec:
    # ft_mode none so the one-worker configuration is legal and every
    # point of the scaling series runs the identical protocol.
    return BackendSpec(algorithm="pagerank", num_nodes=num_nodes,
                       ft_mode="none", ft_level=0,
                       max_iterations=ITERATIONS)


def _run(key: str) -> dict:
    if key in _RESULTS:
        return _RESULTS[key]
    graph = _graph()
    if key == "simulator":
        start = time.perf_counter()
        result = SimulatorBackend().run(graph, _spec(4))
        wall_s = time.perf_counter() - start
        backend = "simulator"
        workers = 4
    else:
        workers = int(key.split("-")[1])
        with MultiprocessingBackend() as be:
            result = be.run(graph, _spec(workers))
        wall_s = result.wall_s
        backend = "multiprocessing"
    _RESULTS[key] = {
        "backend": backend,
        "workers": workers,
        "graph": f"power_law({GRAPH_N}, alpha=2.0, seed=7)",
        "algorithm": "pagerank",
        "iterations": result.iterations,
        "wall_s": wall_s,
        "wall_per_superstep_s": wall_s / max(result.iterations, 1),
        "logical_records": result.total_msgs,
        "wire_bytes": result.total_bytes,
        "values_checksum": sum(result.values.values()),
    }
    _RESULTS[key]["_values"] = result.values
    _flush()
    return _RESULTS[key]


def _flush() -> None:
    runs = [{k: v for k, v in _RESULTS[key].items() if k != "_values"}
            for key in sorted(_RESULTS)]
    summary: dict = {"cpu_count": os.cpu_count()}
    sim = _RESULTS.get("simulator")
    for workers in WORKER_COUNTS:
        run = _RESULTS.get(f"mp-{workers}")
        if sim and run:
            summary[f"speedup_{workers}w_vs_simulator"] = \
                sim["wall_s"] / max(run["wall_s"], 1e-9)
    BENCH_PATH.write_text(json.dumps(
        {"figure": "mp_backend_scaling",
         "workload": {"graph": f"power_law({GRAPH_N}, alpha=2.0, seed=7)",
                      "algorithm": "pagerank", "iterations": ITERATIONS,
                      "ft_mode": "none"},
         "runs": runs, "summary": summary},
        indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_scaling_point_matches_simulator_traffic(workers):
    """Each scaling point must do the real protocol work: identical
    logical traffic and bit-identical values to a simulator run of the
    same spec."""
    run = _run(f"mp-{workers}")
    reference = SimulatorBackend().run(_graph(), _spec(workers))
    assert run["iterations"] == reference.iterations
    assert run["logical_records"] == reference.total_msgs
    assert run["wire_bytes"] == reference.total_bytes
    assert _RESULTS[f"mp-{workers}"]["_values"] == reference.values


def test_speedup_vs_simulator():
    sim = _run("simulator")
    mp4 = _run("mp-4")
    speedup = sim["wall_s"] / max(mp4["wall_s"], 1e-9)
    print(f"\nsimulator {sim['wall_s']:.2f}s vs 4-worker mp "
          f"{mp4['wall_s']:.2f}s ({speedup:.2f}x, "
          f"{os.cpu_count()} cpus)")
    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(f"speedup gate needs >=4 CPUs (host has {cpus}); "
                    f"honest numbers recorded in BENCH_mp_backend.json")
    assert speedup >= SPEEDUP_FLOOR

"""Shared benchmark harness.

Every benchmark file regenerates one of the paper's tables or figures:
it runs the simulated cluster on the scaled stand-in datasets, prints
the same rows/series the paper reports, and asserts the *shape* of the
result (orderings, rough factors, crossovers) rather than absolute
numbers — the substrate is a simulator, not the authors' testbed.

Runs are cached per pytest session: several figures share the same
underlying executions (e.g. Fig. 7's REP runs also feed Fig. 8 and
Table 2's baselines), so each configuration executes once.

All experiments run at the paper's cluster size (50 worker nodes) and
with ``data_scale`` set to each stand-in's downscale factor, so the
simulated seconds land in the paper's range.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.api import make_engine
from repro.datasets import CATALOG
from repro.datasets import load as load_dataset
from repro.engine.engine import Engine, RunResult

#: The paper's cluster size (Section 6.1).
NUM_NODES = 50

_CACHE: dict[tuple, tuple[Engine, RunResult]] = {}
#: Wall-clock of the original execution, reported again on cache hits.
_WALL: dict[tuple, float] = {}

# ---------------------------------------------------------------------------
# machine-readable results (BENCH_<figure>.json)
# ---------------------------------------------------------------------------

#: Repo root — BENCH files land next to pyproject.toml.
_BENCH_DIR = Path(__file__).resolve().parent.parent

#: figure -> {spec key -> result record}; flushed on every new record.
_BENCH: dict[str, dict[tuple, dict[str, Any]]] = {}


def _current_figure() -> str:
    """Figure name from the running test module (``fig07``, ``tab02``...).

    Falls back to ``adhoc`` outside pytest, so direct harness use still
    records results.
    """
    test = os.environ.get("PYTEST_CURRENT_TEST", "")
    if test:
        module = Path(test.split("::", 1)[0]).stem
        return module[len("test_"):] if module.startswith("test_") else module
    return "adhoc"


def _bench_record(spec: RunSpec, engine: Engine, result: RunResult,
                  wall_s: float) -> None:
    """Attribute one (possibly cached) execution to the current figure."""
    figure = _current_figure()
    per_figure = _BENCH.setdefault(figure, {})
    if spec.key() in per_figure:
        return
    totals = engine.cluster.network.totals
    per_figure[spec.key()] = {
        "spec": asdict(spec),
        "sim_time_s": result.total_sim_time_s,
        "wall_time_s": wall_s,
        "iterations": result.num_iterations,
        "messages": result.total_messages,
        "bytes": result.total_bytes,
        "traffic_by_kind": {
            kind.value: {"msgs": totals.msgs_by_kind[kind],
                         "bytes": totals.bytes_by_kind[kind]}
            for kind in sorted(totals.msgs_by_kind, key=lambda k: k.value)},
        "recoveries": [
            {"strategy": r.strategy, "at_iteration": r.at_iteration,
             "failed_nodes": list(r.failed_nodes),
             "reload_s": r.reload_s, "reconstruct_s": r.reconstruct_s,
             "replay_s": r.replay_s, "detection_s": r.detection_s,
             "recovery_bytes": r.recovery_bytes,
             "repair_s": r.repair_s,
             "repair_replicas_created": r.repair_replicas_created}
            for r in result.recoveries],
        "fallback_by_rung": {
            key[len("recovery.fallback.by_rung."):]: int(value)
            for key, value in engine.metrics.counters(
                "recovery.fallback.by_rung.").items()},
        "ft_level_current": result.ft_level_current,
        "ft_degraded": result.ft_degraded,
    }
    path = _BENCH_DIR / f"BENCH_{figure}.json"
    payload = {"figure": figure, "runs": list(per_figure.values())}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class RunSpec:
    """One cached engine execution."""

    dataset: str
    algorithm: str = "pagerank"
    ft: str = "replication"            # none | replication | checkpoint
    partition: str = "hash_edge_cut"
    nodes: int = NUM_NODES
    iterations: int = 4
    ft_level: int = 1
    recovery: str = "rebirth"
    failures: tuple = ()
    selfish_optimization: bool = True
    checkpoint_interval: int = 1
    checkpoint_in_memory: bool = False
    safety_checkpoint_interval: int = 0
    num_standby: int = 3
    algo_kwargs: tuple = ()

    def key(self) -> tuple:
        """Cache key with configuration-irrelevant fields normalised.

        A BASE run is the same run whatever ft_level/recovery it was
        requested with; a replication run ignores checkpoint knobs and
        vice versa; the recovery strategy only matters when failures
        are injected.
        """
        ft_level = self.ft_level if self.ft == "replication" else 0
        recovery = (self.recovery
                    if self.ft == "replication" and self.failures
                    else "-")
        selfish = (self.selfish_optimization
                   if self.ft == "replication" else True)
        ckpt_interval = (self.checkpoint_interval
                         if self.ft == "checkpoint" else 1)
        ckpt_mem = (self.checkpoint_in_memory
                    if self.ft == "checkpoint" else False)
        safety = (self.safety_checkpoint_interval
                  if self.ft == "replication" else 0)
        return (self.dataset, self.algorithm, self.ft, self.partition,
                self.nodes, self.iterations, ft_level, recovery,
                self.failures, selfish, ckpt_interval, ckpt_mem,
                safety, self.num_standby, self.algo_kwargs)


def algorithm_kwargs(dataset: str, algorithm: str) -> dict[str, Any]:
    """Per-workload program options (Table 1 conventions)."""
    if algorithm == "als":
        graph = load_dataset(dataset)
        # The SYN-GL stand-in is built with an 80/20 user/item split.
        return {"num_users": graph.num_vertices * 4 // 5, "rank": 3}
    if algorithm == "sssp":
        return {"source": 0}
    return {}


def execute(spec: RunSpec) -> tuple[Engine, RunResult]:
    """Run (or fetch) one configuration.

    Every call — cache hit or not — is recorded in the current
    figure's ``BENCH_<figure>.json``, so each figure's file lists all
    the runs it depends on even when another figure executed them.
    """
    key = spec.key()
    if key in _CACHE:
        engine, result = _CACHE[key]
        _bench_record(spec, engine, result, _WALL.get(key, 0.0))
        return engine, result
    graph = load_dataset(spec.dataset)
    kwargs = dict(spec.algo_kwargs) or algorithm_kwargs(spec.dataset,
                                                        spec.algorithm)
    engine = make_engine(
        graph, spec.algorithm,
        num_nodes=spec.nodes,
        ft_mode=spec.ft if spec.ft != "rep" else "replication",
        ft_level=spec.ft_level,
        recovery=spec.recovery,
        partition=spec.partition,
        max_iterations=spec.iterations,
        checkpoint_interval=spec.checkpoint_interval,
        checkpoint_in_memory=spec.checkpoint_in_memory,
        safety_checkpoint_interval=spec.safety_checkpoint_interval,
        selfish_optimization=spec.selfish_optimization,
        num_standby=spec.num_standby,
        data_scale=float(CATALOG[spec.dataset].scale),
        algorithm_kwargs=kwargs,
    )
    for failure in spec.failures:
        engine.schedule_failure(*failure)
    start = time.perf_counter()
    result = engine.run()
    wall_s = time.perf_counter() - start
    _CACHE[key] = (engine, result)
    _WALL[key] = wall_s
    _bench_record(spec, engine, result, wall_s)
    return engine, result


def run(dataset: str, **overrides: Any) -> tuple[Engine, RunResult]:
    return execute(RunSpec(dataset=dataset, **overrides))


def overhead_over_base(dataset: str, ft: str, **overrides: Any) -> float:
    """Relative slowdown of an FT config against BASE (Figs. 7/13...)."""
    _, base = run(dataset, ft="none", **overrides)
    _, with_ft = run(dataset, ft=ft, **overrides)
    return with_ft.execution_time_s() / base.execution_time_s() - 1.0


def recovery_stats(dataset: str, *, at_iteration: int = 2,
                   crash_nodes: tuple[int, ...] = (5,),
                   **overrides: Any):
    """Run with an injected crash and return the RecoveryStats."""
    failures = ((at_iteration, tuple(crash_nodes)),)
    _, result = run(dataset, failures=failures, **overrides)
    assert result.recoveries, "no recovery happened"
    return result.recoveries[0]


# ---------------------------------------------------------------------------
# printing helpers
# ---------------------------------------------------------------------------

def print_table(title: str, headers: list[str],
                rows: list[list[Any]]) -> None:
    """Print one paper-style table."""
    widths = [max(len(str(h)), *(len(_fmt(r[i])) for r in rows))
              for i, h in enumerate(headers)]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(_fmt(c).ljust(w) for c, w in zip(row, widths)))


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}" if abs(cell) >= 0.1 else f"{cell:.4f}"
    return str(cell)


def pct(x: float) -> str:
    return f"{100 * x:.2f}%"

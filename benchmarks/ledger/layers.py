"""Per-layer metrics of one traced simulator run.

The run is built exactly like ``SimulatorBackend.run`` builds it, with a
``Tracer`` passed to ``make_engine``; every time below is a reduction of
the spans ``repro.obs`` already emits (self time = span minus children).
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

#: metric -> (span name, "wall" | "self").
SPAN_METRICS = {
    "load.partition_s": ("load.partition", "wall"),
    "load.replicate_s": ("load.replicate", "wall"),
    "load.construct_s": ("load.construct", "wall"),
    "load.ft_init_s": ("load.ft_init", "wall"),
    "load.other_s": ("load", "self"),
    "superstep.compute_s": ("compute", "wall"),
    "superstep.sync_s": ("sync", "wall"),
    "superstep.detect_s": ("detect", "wall"),
    "superstep.barrier_apply_syncs_s": ("barrier.apply_syncs", "wall"),
    "superstep.barrier_commit_s": ("barrier.commit", "wall"),
    "superstep.barrier_other_s": ("barrier", "self"),
    "superstep.other_s": ("superstep", "self"),
    "recovery.protocol_s": ("recovery.protocol", "wall"),
    "recovery.repair_s": ("recovery.repair", "wall"),
    "recovery.other_s": ("recovery", "self"),
    "serve.busy_s": ("serve", "wall"),
}


def span_times(events: list[dict]) -> dict[str, dict[str, float]]:
    """Summed wall and self wall per span name.

    The tracer appends a span when it closes, so children precede their
    parent: the wall of the spans closed one level deeper since the last
    span at this level is exactly this span's children.
    """
    wall: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    closed_below: dict[int, float] = defaultdict(float)
    for event in events:
        if event["type"] != "span":
            continue
        depth, dur = event["depth"], event["dur_wall_s"]
        wall[event["name"]] += dur
        own[event["name"]] += dur - closed_below.pop(depth + 1, 0.0)
        closed_below[depth] += dur
    return {"wall": wall, "self": own}


def _spanned_pump(server, cursor, tracer):
    """A ``ServePump`` with a benchmark-side span around every drain, so
    read time separates from the superstep or recovery it interleaves
    with (drains at ``post_commit`` / ``after_commit`` sit between the
    engine's own spans)."""
    from repro.serve.server import ServePump

    class SpannedPump(ServePump):
        def on_phase(self, engine, phase: str) -> None:
            with tracer.span("serve", cat="serve", phase=phase):
                super().on_phase(engine, phase)

    return SpannedPump(server, cursor)


def run_traced(graph, spec) -> tuple[dict, list | None, dict]:
    """One traced run; returns (layer metrics, read responses or ``None``
    when the spec serves nothing, final values)."""
    from repro.api import make_engine
    from repro.obs import Tracer
    from repro.serve.server import ReadServer, WorkloadCursor
    from repro.serve.workload import KIND_NAMES, workload_from_config

    tracer = Tracer()
    start = time.perf_counter()
    engine = make_engine(graph, tracer=tracer, **spec.engine_kwargs())
    for iteration, ranks, phase in spec.failures:
        engine.schedule_failure(iteration, list(ranks), phase)
    server = None
    serve_cfg = spec.serve_config()
    if serve_cfg is not None:
        workload = workload_from_config(graph.num_vertices, serve_cfg)
        server = ReadServer(engine, seed=serve_cfg.get("route_seed", 0),
                            policy=serve_cfg.get("policy", "round_robin"),
                            neighborhood_limit=workload.neighborhood_limit)
        pump = _spanned_pump(server, WorkloadCursor(
            workload, serve_cfg["expected_supersteps"]), tracer)
        engine.attach_serve(pump)
    run_start = time.perf_counter()
    result = engine.run()
    end = time.perf_counter()
    total_s = end - start

    times = span_times(tracer.events)
    layers = {metric: times[kind][span]
              for metric, (span, kind) in SPAN_METRICS.items()}
    top_level = tracer.top_level_spans()
    covered = sum(s["dur_wall_s"] for s in top_level)
    load_s = sum(s["dur_wall_s"] for s in top_level if s["name"] == "load")
    compute = tracer.spans(name="compute")
    totals = engine.cluster.network.totals
    layers.update({
        "trace.total_s": total_s,
        "trace.run_s": end - run_start,
        # Share of the traced total the engine's own top-level spans
        # (load, superstep, recovery; plus serve drains) account for; the
        # two residuals below name the rest, so nothing is hidden.
        "trace.coverage": covered / total_s,
        "load.untraced_s": (run_start - start) - load_s,
        "run.untraced_gap_s": (end - run_start) - (covered - load_s),
        "kernel.edges": sum(s["edges"] for s in compute),
        "kernel.vertices": sum(s["vertices"] for s in compute),
        "net.msgs": totals.total_msgs,
        "net.bytes": totals.total_bytes,
        "net.batches": totals.total_batches,
        "net.syncs_elided": engine.syncs_elided,
        "net.combined_records": result.combined_records,
        "net.combine_ratio": result.combine_ratio,
        "engine.iterations": result.num_iterations,
        "ft.extra_replica_fraction": engine.plan.extra_replica_fraction(),
        "recovery.count": len(result.recoveries),
        "recovery.bytes": sum(r.recovery_bytes for r in result.recoveries),
    })
    responses = None
    if server is not None:
        pump.finish()
        stats = server.stats
        latency_us = np.asarray(stats.latencies_s) * 1e6
        kinds = np.fromiter((r.kind for r in stats.responses), dtype=np.int8,
                            count=len(stats.responses))
        for code, name in KIND_NAMES.items():
            layers[f"serve.{name}_p50_us"] = float(
                np.percentile(latency_us[kinds == code], 50))
        load = list(server.router.load.values())
        layers["serve.degraded_reads"] = stats.degraded_served
        layers["serve.misses"] = stats.misses
        layers["serve.load_imbalance"] = max(load) / (sum(load) / len(load))
        responses = stats.responses
    return layers, responses, result.values

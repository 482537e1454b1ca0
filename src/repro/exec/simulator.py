"""The deterministic in-process simulator as an execution backend.

A thin adapter: :class:`SimulatorBackend` builds the same ``Engine``
the rest of the repo uses (tests, chaos, cost model — semantics
unchanged) and repackages its outcome as a
:class:`~repro.exec.base.BackendRunResult` for cross-backend
comparison.  When the spec carries a serve configuration the backend
attaches the :class:`~repro.serve.server.ServePump` that
:func:`~repro.serve.server.serve_pump` builds, so reads interleave
with supersteps and recovery at every engine phase hook, and returns
the serve report (and responses, for the differential check) in
``extra["serve"]`` / ``extra["serve_responses"]``.
"""

from __future__ import annotations

import time

from repro.api import make_engine
from repro.exec.base import (
    BackendRunResult,
    BackendSpec,
    ExecutionBackend,
    recoveries_report,
)
from repro.serve.server import serve_pump


class SimulatorBackend(ExecutionBackend):
    """Runs a spec on the single-process simulator ``Engine``."""

    name = "simulator"

    def run(self, graph, spec: BackendSpec) -> BackendRunResult:
        engine = make_engine(graph, **spec.engine_kwargs())
        for iteration, ranks, phase in spec.failures:
            engine.schedule_failure(iteration, list(ranks), phase)
        serve_cfg = spec.serve_config()
        pump = None
        if serve_cfg is not None:
            pump = serve_pump(engine, serve_cfg)
            engine.attach_serve(pump)
        start = time.perf_counter()
        result = engine.run()
        wall_s = time.perf_counter() - start
        totals = engine.cluster.network.totals
        extra = {
            "ft_level_current": result.ft_level_current,
            "ft_degraded": result.ft_degraded,
        }
        if result.membership:
            extra["membership"] = result.membership
        if result.recoveries:
            extra["recoveries"] = recoveries_report(result.recoveries)
        if pump is not None:
            pump.finish()
            extra["serve"] = pump.server.report()
            extra["serve_responses"] = pump.server.responses
        return BackendRunResult(
            backend=self.name,
            values=result.values,
            iterations=result.num_iterations,
            total_msgs=totals.total_msgs,
            total_bytes=totals.total_bytes,
            total_batches=totals.total_batches,
            msgs_by_kind={
                kind.value: count
                for kind, count in totals.msgs_by_kind.items()
                if count
            },
            syncs_elided=engine.syncs_elided,
            wall_s=wall_s,
            halted=result.halted_early,
            failures_recovered=len(result.recoveries),
            combined_records=result.combined_records,
            combine_ratio=result.combine_ratio,
            extra=extra,
        )

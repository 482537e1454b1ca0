"""The read server and the engine hook that pumps it (DESIGN.md §13).

:class:`ReadServer` answers one query at a time against a
:class:`~repro.serve.view.CommittedView` through a
:class:`~repro.serve.router.ReplicaRouter`, stamping every response
with the superstep it reflects and the degraded flag.  Service-time
latency (wall-clock per query) and per-replica load feed the obs
:class:`~repro.obs.registry.MetricsRegistry`.

:class:`ServePump` drives the server *concurrently with the run*: it
attaches as an engine serve hook (:meth:`Engine.attach_serve`) and at
every phase hook drains the queries whose arrival time has passed.
Arrival seconds map onto run progress (supersteps are the engine's
clock) via :class:`WorkloadCursor`, which both backends share: the
simulator pumps at every engine phase, the multiprocessing coordinator
at its protocol-safe points — same workload, same arrival order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.serve.router import MISS, ReplicaRouter
from repro.serve.view import CommittedView
from repro.serve.workload import (
    NEIGHBORHOOD,
    POINT,
    TOPK,
    OpenLoopWorkload,
    Query,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


@dataclass(frozen=True)
class ReadResponse:
    """One answered query, tagged with the snapshot it reflects."""

    gid: int
    kind: int
    #: Point: the committed value.  Neighborhood: tuple of
    #: ``(neighbor_gid, value)``.  Top-K: tuple of ``(gid, value)``.
    #: ``None`` on a miss (no alive copy).
    value: Any
    #: The committed superstep this response reflects (-1 = initial).
    superstep: int
    #: True when served during recovery or off a surviving replica
    #: while some copy's node is dead.
    degraded: bool
    #: Node that served the read (-1 for misses; the master's node for
    #: top-K, which aggregates across nodes).
    replica_node: int


class ServeStats:
    """Response accounting shared by both backends' servers."""

    def __init__(self, keep_responses: bool = True):
        self.keep_responses = keep_responses
        self.responses: list[ReadResponse] = []
        self.latencies_s: list[float] = []
        self.served = 0
        self.degraded_served = 0
        self.misses = 0

    def record(self, resp: ReadResponse, latency_s: float) -> None:
        self.served += 1
        self.latencies_s.append(latency_s)
        if resp.degraded:
            self.degraded_served += 1
        if self.keep_responses:
            self.responses.append(resp)

    def report(self, router: ReplicaRouter, metrics=None) -> dict:
        """p50/p99 service latency, per-replica load, degraded counts —
        also published to a metrics registry when one is given."""
        lat = np.asarray(self.latencies_s, dtype=np.float64)
        p50 = float(np.percentile(lat, 50)) if lat.size else 0.0
        p99 = float(np.percentile(lat, 99)) if lat.size else 0.0
        if metrics is not None:
            metrics.set_gauge("serve.queries", self.served)
            metrics.set_gauge("serve.degraded", self.degraded_served)
            metrics.set_gauge("serve.misses", self.misses)
            metrics.set_gauge("serve.p50_us", p50 * 1e6)
            metrics.set_gauge("serve.p99_us", p99 * 1e6)
            router.publish_load(metrics)
        return {
            "queries": self.served,
            "degraded_reads": self.degraded_served,
            "misses": self.misses,
            "p50_us": p50 * 1e6,
            "p99_us": p99 * 1e6,
            "per_replica_load": {int(n): int(c) for n, c
                                 in sorted(router.load.items())},
        }


class ReadServer:
    """Synchronous query execution over committed state."""

    def __init__(self, engine: "Engine", seed: int = 0,
                 policy: str = "round_robin",
                 keep_responses: bool = True,
                 neighborhood_limit: int = 16):
        self.engine = engine
        self.neighborhood_limit = neighborhood_limit
        self.view = CommittedView(engine)
        self.router = ReplicaRouter(engine, seed=seed, policy=policy)
        self.stats = ServeStats(keep_responses)

    @property
    def responses(self) -> list[ReadResponse]:
        return self.stats.responses

    @property
    def served(self) -> int:
        return self.stats.served

    @property
    def degraded_served(self) -> int:
        return self.stats.degraded_served

    @property
    def misses(self) -> int:
        return self.stats.misses

    # -- query execution -------------------------------------------------

    def serve(self, query: Query) -> ReadResponse:
        start = time.perf_counter()
        if query.kind == POINT:
            resp = self._serve_point(query.gid)
        elif query.kind == NEIGHBORHOOD:
            resp = self._serve_neighborhood(query.gid)
        elif query.kind == TOPK:
            resp = self._serve_topk(query.k)
        else:
            raise ValueError(f"unknown query kind {query.kind}")
        self.stats.record(resp, time.perf_counter() - start)
        return resp

    def _serve_point(self, gid: int) -> ReadResponse:
        node, degraded = self.router.route(gid)
        if node == MISS:
            self.stats.misses += 1
            value = None
        else:
            value = self.view.read(gid, node)
        return ReadResponse(gid=gid, kind=POINT, value=value,
                            superstep=self.view.superstep,
                            degraded=degraded, replica_node=node)

    def _serve_neighborhood(self, gid: int) -> ReadResponse:
        nbrs = self.view.out_neighbors(gid,
                                       limit=self.neighborhood_limit)
        parts: list[tuple[int, Any]] = []
        degraded = self.engine.in_recovery
        node0 = MISS
        for nbr in nbrs:
            node, deg = self.router.route(nbr)
            degraded = degraded or deg
            if node == MISS:
                self.stats.misses += 1
                parts.append((nbr, None))
                continue
            if node0 == MISS:
                node0 = node
            parts.append((nbr, self.view.read(nbr, node)))
        return ReadResponse(gid=gid, kind=NEIGHBORHOOD,
                            value=tuple(parts),
                            superstep=self.view.superstep,
                            degraded=degraded, replica_node=node0)

    def _serve_topk(self, k: int) -> ReadResponse:
        top = self.view.top_k(k)
        # Top-K aggregates over alive nodes' masters: with any node
        # dead (even before detection fires) coverage may be partial,
        # which is exactly the explicit-degradation contract.
        engine = self.engine
        # ``selfish_read_fence``: recovery-recomputed masters are still
        # in the ranking but reflect the *next* commit — partial too.
        # ``expected_workers`` tracks elastic membership (joins grow
        # it, retirements shrink it) so a cleanly drained node does not
        # read as a permanently degraded cluster.
        partial = bool(engine.selfish_read_fence) or (
            len(engine.cluster.alive_workers())
            < engine.cluster.expected_workers())
        return ReadResponse(
            gid=-1, kind=TOPK, value=tuple(top),
            superstep=self.view.superstep,
            degraded=engine.in_recovery or partial,
            replica_node=MISS)

    # -- reporting -------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """Serve-side stats, also published to the engine's metrics."""
        return self.stats.report(self.router, self.engine.metrics)


#: Fraction of a superstep each engine phase hook sits at — maps the
#: workload's arrival timeline onto run progress so queries keep
#: arriving *inside* supersteps and recovery windows, not just at
#: barriers.  Identical on every backend for a given schedule shape.
PHASE_PROGRESS = {
    "superstep_start": 0.0,
    "gather": 0.25,
    "sync": 0.5,
    "barrier": 0.75,
    "recovery": 0.8,
    "recovery_protocol": 0.85,
    "post_recovery": 0.9,
    "post_commit": 1.0,
    # ``after_commit`` fires after ``iteration`` was already advanced,
    # so its fraction is 0 — the same instant as ``post_commit`` of the
    # superstep just committed (iteration N + 1.0 == iteration N+1 + 0).
    "after_commit": 0.0,
}


class WorkloadCursor:
    """Monotonic arrival cursor: which queries are due at a progress.

    Progress is measured in supersteps (fractional inside one); the
    workload's arrival seconds are scaled so its full horizon spans
    ``expected_supersteps``.  Both backends share this mapping, so the
    query-to-drain-point assignment is identical wherever the drain
    points coincide.
    """

    def __init__(self, workload: OpenLoopWorkload,
                 expected_supersteps: int):
        scale = expected_supersteps / workload.horizon_s
        self._arrival_progress = workload.arrival_s * scale
        self._workload = workload
        self._next = 0

    def due(self, progress: float) -> list[Query]:
        """Queries that arrived by ``progress``, in arrival order."""
        arrivals = self._arrival_progress
        i = self._next
        out: list[Query] = []
        while i < arrivals.size and arrivals[i] <= progress:
            out.append(self._workload.query(i))
            i += 1
        self._next = i
        return out

    def drain(self) -> list[Query]:
        """All remaining queries (end of run)."""
        return self.due(float("inf"))

    @property
    def remaining(self) -> int:
        return int(self._arrival_progress.size - self._next)


class ServePump:
    """Engine serve hook: drain due queries at every phase hook.

    Attach via :meth:`Engine.attach_serve`; reads interleave with
    supersteps and recovery at every phase the engine exposes, and
    :meth:`finish` drains the tail after the run completes.
    """

    def __init__(self, server: ReadServer, cursor: WorkloadCursor):
        self.server = server
        self.cursor = cursor

    def on_phase(self, engine: "Engine", phase: str) -> None:
        frac = PHASE_PROGRESS.get(phase)
        if frac is None:
            return
        for query in self.cursor.due(engine.iteration + frac):
            self.server.serve(query)

    def finish(self) -> None:
        for query in self.cursor.drain():
            self.server.serve(query)

"""The read server and the engine hook that pumps it (DESIGN.md §13).

:class:`ReadServer` answers one *drain* at a time — the queries whose
arrival has passed at one engine phase hook, a range of query indices —
against the engine's committed columns through a
:class:`~repro.serve.router.ReplicaRouter`, stamping every response
with the superstep it reflects and the degraded flag.  Responses land
in :class:`ServeStats`' parallel columns; no per-read object is built.
Service-time latency (wall-clock per query) and per-replica load feed
the obs :class:`~repro.obs.registry.MetricsRegistry`.

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
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.serve.router import MISS, ReplicaRouter
from repro.serve.view import CommittedView
from repro.serve.workload import (
    KIND_NAMES,
    NEIGHBORHOOD,
    POINT,
    TOPK,
    OpenLoopWorkload,
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


class ResponseView(Sequence):
    """Read-only sequence over :class:`ServeStats`' response columns;
    a :class:`ReadResponse` row is built only when one is indexed."""

    def __init__(self, stats: "ServeStats"):
        self._stats = stats

    def columns(self) -> tuple[list, ...]:
        """``(gids, kinds, values, supersteps, degraded, nodes)``, all
        of one length (empty while ``keep_responses`` is off)."""
        s = self._stats
        kinds = s.kinds if s.keep_responses else []
        return (s.gids, kinds, s.values, s.supersteps, s.degraded,
                s.nodes)

    def __len__(self) -> int:
        return len(self._stats.gids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        s = self._stats
        return ReadResponse(gid=s.gids[index], kind=s.kinds[index],
                            value=s.values[index],
                            superstep=s.supersteps[index],
                            degraded=s.degraded[index],
                            replica_node=s.nodes[index])


class ServeStats:
    """Response accounting shared by both backends' servers: one column
    per response field, plus the per-query service time."""

    def __init__(self, keep_responses: bool = True):
        self.keep_responses = keep_responses
        #: Response columns, one entry per answered query, kept only
        #: while ``keep_responses``.  ``kinds`` is the exception: it
        #: always runs parallel to ``latencies_s`` for the per-kind
        #: gauges, so :meth:`ResponseView.columns` hides it when
        #: responses are not kept.
        self.gids: list[int] = []
        self.kinds: list[int] = []
        self.values: list[Any] = []
        self.supersteps: list[int] = []
        self.degraded: list[bool] = []
        self.nodes: list[int] = []
        self.latencies_s: list[float] = []
        self.degraded_served = 0
        self.misses = 0

    @property
    def served(self) -> int:
        return len(self.latencies_s)

    @property
    def responses(self) -> ResponseView:
        return ResponseView(self)

    def record(self, gid: int, kind: int, value: Any, superstep: int,
               degraded: bool, node: int, latency_s: float) -> None:
        """Append one answered query."""
        self.latencies_s.append(latency_s)
        self.kinds.append(kind)
        if degraded:
            self.degraded_served += 1
        if self.keep_responses:
            self.gids.append(gid)
            self.values.append(value)
            self.supersteps.append(superstep)
            self.degraded.append(degraded)
            self.nodes.append(node)

    def report(self, router: ReplicaRouter, metrics=None) -> dict:
        """p50/p99 service latency, per-replica load, degraded counts —
        also published to a metrics registry when one is given, with
        the p50 of each query kind."""
        lat = np.asarray(self.latencies_s, dtype=np.float64)
        p50 = float(np.percentile(lat, 50)) if lat.size else 0.0
        p99 = float(np.percentile(lat, 99)) if lat.size else 0.0
        if metrics is not None:
            metrics.set_gauge("serve.queries", self.served)
            metrics.set_gauge("serve.degraded", self.degraded_served)
            metrics.set_gauge("serve.misses", self.misses)
            metrics.set_gauge("serve.p50_us", p50 * 1e6)
            metrics.set_gauge("serve.p99_us", p99 * 1e6)
            kinds = np.asarray(self.kinds, dtype=np.int8)
            for code, name in KIND_NAMES.items():
                own = lat[kinds == code]
                metrics.set_gauge(
                    f"serve.{name}_p50_us",
                    float(np.percentile(own, 50)) * 1e6 if own.size
                    else 0.0)
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
    def responses(self) -> ResponseView:
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

    def serve_drain(self, kinds: list[int], gids: list[int],
                    k: int) -> None:
        """Answer queries ``(kinds[i], gids[i])`` in order, top-K ones
        with ``k``, under one routing snapshot.

        Each query's ``perf_counter`` pair encloses all of its own work
        (routing and reads); only the O(nodes) drain set-up sits
        outside.
        """
        engine, router, stats = self.engine, self.router, self.stats
        router.open_snapshot()
        try:
            route = router.route
            value_at = engine.committed_value_at
            out_neighbors = self.view.out_neighbors
            limit = self.neighborhood_limit
            top_k = self.view.top_k
            record = stats.record
            superstep = engine.committed_iteration
            in_recovery = engine.in_recovery
            # Top-K coverage is partial with any node dead (even before
            # detection fires) or recovery-recomputed selfish masters in
            # the ranking (they reflect the *next* commit).
            # ``expected_workers`` follows elastic membership, so a
            # cleanly drained node does not read as a degraded cluster.
            cluster = engine.cluster
            topk_degraded = in_recovery or bool(
                engine.selfish_read_fence) or (
                len(cluster.alive_workers()) < cluster.expected_workers())
            perf = time.perf_counter
            for kind, gid in zip(kinds, gids):
                start = perf()
                if kind == POINT:
                    node, degraded = route(gid)
                    if node == MISS:
                        stats.misses += 1
                        value = None
                    else:
                        value = value_at(node, gid)
                elif kind == NEIGHBORHOOD:
                    parts = []
                    degraded = in_recovery
                    node = MISS
                    for nbr in out_neighbors(gid, limit):
                        copy, deg = route(nbr)
                        degraded = degraded or deg
                        if copy == MISS:
                            stats.misses += 1
                            parts.append((nbr, None))
                            continue
                        if node == MISS:
                            node = copy
                        parts.append((nbr, value_at(copy, nbr)))
                    value = tuple(parts)
                elif kind == TOPK:
                    gid, node, degraded = -1, MISS, topk_degraded
                    value = tuple(top_k(k))
                else:
                    raise ValueError(f"unknown query kind {kind}")
                record(gid, kind, value, superstep, degraded, node,
                       perf() - start)
        finally:
            router.close_snapshot()

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
    points coincide.  A drain is a range ``[lo, hi)`` of query indices;
    :attr:`kinds` and :attr:`gids` are the workload's columns as lists,
    made once, for the servers to slice.
    """

    def __init__(self, workload: OpenLoopWorkload,
                 expected_supersteps: int):
        scale = expected_supersteps / workload.horizon_s
        self._arrival_progress = workload.arrival_s * scale
        self.kinds: list[int] = workload.kinds.tolist()
        self.gids: list[int] = workload.gids.tolist()
        self.topk_k = workload.topk_k
        self._next = 0

    def due(self, progress: float) -> tuple[int, int]:
        """The index range ``[lo, hi)`` of the queries that arrived by
        ``progress`` (arrivals are sorted: one binary search)."""
        lo = self._next
        hi = max(lo, int(np.searchsorted(self._arrival_progress, progress,
                                         side="right")))
        self._next = hi
        return lo, hi

    def drain(self) -> tuple[int, int]:
        """All remaining queries (end of run)."""
        return self.due(float("inf"))


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
        self._serve(*self.cursor.due(engine.iteration + frac))

    def finish(self) -> None:
        self._serve(*self.cursor.drain())

    def _serve(self, lo: int, hi: int) -> None:
        if lo < hi:
            cursor = self.cursor
            self.server.serve_drain(cursor.kinds[lo:hi], cursor.gids[lo:hi],
                                    cursor.topk_k)

"""The read server and the pump that feeds it (DESIGN.md §13).

:class:`ReadServer` answers one *drain* at a time — the queries whose
arrival has passed at one engine phase hook, a range of query indices —
against committed state through a
:class:`~repro.serve.router.ReplicaRouter`, stamping every response
with the superstep it reflects and the degraded flag.  It is the one
server of both backends: a drain is routed whole, then a *reader*
fetches and answers the reads — :class:`EngineReader` from the
engine's committed columns in process, mp's worker reader over
``read`` / ``topk`` frames.  Responses land in :class:`ServeStats`'
parallel columns; no per-read object is built.  Service-time latency
(wall-clock per query) and per-replica load feed the obs
:class:`~repro.obs.registry.MetricsRegistry`.

:class:`ServePump` drives the server *concurrently with the run*: the
simulator attaches it as an engine serve hook
(:meth:`Engine.attach_serve`), the multiprocessing coordinator calls
:meth:`ServePump.drain` at its protocol-safe points, and
:func:`serve_pump` builds it from a serve config for both.  Arrival
seconds map onto run progress (supersteps are the engine's clock) via
:class:`WorkloadCursor` — same workload, same arrival order.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
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
    workload_from_config,
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
    """Response accounting: one column per response field, plus the
    per-query service time."""

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


class EngineReader:
    """The in-process reader: it fetches nothing, and reads the engine's
    committed columns (:meth:`Engine.committed_value_at`) and
    :meth:`CommittedView.top_k`.

    The reader seam of :class:`ReadServer`: after a drain is routed,
    ``fetch(copies, k)`` gets every routed ``(node, gid)`` copy (a lazy
    iterable) and the top-K ``k`` (``None`` when the drain holds no
    top-K query) and returns the wall seconds it spent;
    ``value_at(node, gid)`` and ``top_k(k)`` then answer from what was
    fetched.  mp's coordinator plugs in a reader over worker frames
    (:mod:`repro.exec.mp`).
    """

    def __init__(self, engine: "Engine", view: CommittedView):
        self.value_at = engine.committed_value_at
        self.top_k = view.top_k

    @staticmethod
    def fetch(copies: Iterable[tuple[int, int]], k: int | None) -> float:
        return 0.0


class ReadServer:
    """Synchronous query execution over committed state, on both
    backends: the backend difference is the reader (see
    :class:`EngineReader`)."""

    def __init__(self, engine: "Engine", seed: int = 0,
                 policy: str = "round_robin",
                 keep_responses: bool = True,
                 neighborhood_limit: int = 16, reader=None):
        self.engine = engine
        self.neighborhood_limit = neighborhood_limit
        self.view = CommittedView(engine)
        self.router = ReplicaRouter(engine, seed=seed, policy=policy)
        self.stats = ServeStats(keep_responses)
        self.reader = reader or EngineReader(engine, self.view)

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

    def serve_drain(self, kinds: list[int], gids: list[int], k: int,
                    superstep: int) -> None:
        """Answer queries ``(kinds[i], gids[i])`` in order, top-K ones
        with ``k``, under one routing snapshot, tagged with the
        committed ``superstep``.

        Every query is routed, the reader fetches, then every query is
        read and recorded.  A query's latency is its own routing plus
        its own reads plus the reader's fetch (zero in process); only
        the O(nodes) drain set-up sits outside.
        """
        engine, router, stats = self.engine, self.router, self.stats
        router.open_snapshot()
        try:
            route = router.route
            out_neighbors = self.view.out_neighbors
            limit = self.neighborhood_limit
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
            # Route.  Per query: the serving node, the degraded tag and
            # the routing seconds; per neighbourhood query also its
            # ``(neighbours, copies)``.  A miss counts when it is routed.
            # A point query keeps only atoms: a container per query,
            # held until the drain ends, cost serve_kill_sim one more
            # full garbage collection.
            nodes: list[int] = []
            flags: list[bool] = []
            route_s: list[float] = []
            hoods: list[tuple[list[int], list[int]]] = []
            add_node, add_flag, add_s = (nodes.append, flags.append,
                                         route_s.append)
            topk = None
            for kind, gid in zip(kinds, gids):
                start = perf()
                if kind == POINT:
                    node, degraded = route(gid)
                    if node == MISS:
                        stats.misses += 1
                elif kind == NEIGHBORHOOD:
                    degraded = in_recovery
                    node = MISS
                    nbrs = out_neighbors(gid, limit)
                    copies = []
                    for nbr in nbrs:
                        copy, deg = route(nbr)
                        degraded = degraded or deg
                        if copy == MISS:
                            stats.misses += 1
                        elif node == MISS:
                            node = copy
                        copies.append(copy)
                    hoods.append((nbrs, copies))
                elif kind == TOPK:
                    node, degraded, topk = MISS, topk_degraded, k
                else:
                    raise ValueError(f"unknown query kind {kind}")
                add_s(perf() - start)
                add_node(node)
                add_flag(degraded)
            reader = self.reader
            fetch_s = reader.fetch(_copies(kinds, gids, nodes, hoods), topk)
            # Read and record.
            value_at, top_k = reader.value_at, reader.top_k
            record = stats.record
            hood = iter(hoods)
            for kind, gid, node, degraded, own_s in zip(
                    kinds, gids, nodes, flags, route_s):
                start = perf()
                if kind == POINT:
                    value = None if node == MISS else value_at(node, gid)
                elif kind == NEIGHBORHOOD:
                    nbrs, copies = next(hood)
                    value = tuple([
                        (nbr, None if copy == MISS else value_at(copy, nbr))
                        for nbr, copy in zip(nbrs, copies)])
                else:
                    gid = -1
                    value = tuple(top_k(k))
                record(gid, kind, value, superstep, degraded, node,
                       own_s + fetch_s + perf() - start)
        finally:
            router.close_snapshot()

    # -- reporting -------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """Serve-side stats, also published to the engine's metrics."""
        return self.stats.report(self.router, self.engine.metrics)


def _copies(kinds: list[int], gids: list[int], nodes: list[int],
            hoods: list[tuple[list[int], list[int]]]):
    """Every routed ``(node, gid)`` copy of a drain, misses left out."""
    hood = iter(hoods)
    for kind, gid, node in zip(kinds, gids, nodes):
        if kind == POINT:
            if node != MISS:
                yield node, gid
        elif kind == NEIGHBORHOOD:
            nbrs, copies = next(hood)
            for nbr, copy in zip(nbrs, copies):
                if copy != MISS:
                    yield copy, nbr


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
    made once, for the server to slice.
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
    """Drains due queries into a :class:`ReadServer`.

    On the simulator it attaches as an engine serve hook
    (:meth:`Engine.attach_serve`): reads interleave with supersteps and
    recovery at every phase the engine exposes, and :meth:`finish`
    drains the tail after the run completes.  The multiprocessing
    coordinator calls :meth:`drain` itself, at its protocol-safe points.
    """

    def __init__(self, server: ReadServer, cursor: WorkloadCursor):
        self.server = server
        self.cursor = cursor

    def on_phase(self, engine: "Engine", phase: str) -> None:
        frac = PHASE_PROGRESS.get(phase)
        if frac is None:
            return
        self.drain(engine.iteration + frac, engine.committed_iteration)

    def finish(self) -> None:
        self.drain(float("inf"), self.server.engine.committed_iteration)

    def drain(self, progress: float, superstep: int) -> None:
        """Serve every query due by ``progress``, tagged ``superstep``."""
        lo, hi = self.cursor.due(progress)
        if lo < hi:
            cursor = self.cursor
            self.server.serve_drain(cursor.kinds[lo:hi], cursor.gids[lo:hi],
                                    cursor.topk_k, superstep)


def serve_pump(engine: "Engine", cfg: dict, reader=None) -> ServePump:
    """The server and arrival cursor a ``BackendSpec.serve`` config
    names, over ``engine`` — both backends build theirs here."""
    workload = workload_from_config(engine.graph.num_vertices, cfg)
    server = ReadServer(engine, seed=cfg.get("route_seed", 0),
                        policy=cfg.get("policy", "round_robin"),
                        keep_responses=cfg.get("keep_responses", True),
                        neighborhood_limit=workload.neighborhood_limit,
                        reader=reader)
    return ServePump(server, WorkloadCursor(workload,
                                            cfg["expected_supersteps"]))

"""Reference read path, one query at a time: the oracle of the drain
path in ``repro.serve`` (imported by tests only).

* :class:`ReferenceRouter` re-derives every routing input — candidates
  (per gid, from the slots / birth record: a one-position
  ``SlotArray.metadata`` read),
  alive copies, the membership-ineligible set, the fence — on each
  ``route`` call, with no snapshot and no candidate table;
* :class:`ReferenceServer` builds a :class:`~repro.serve.server.
  ReadResponse` per query and answers top-K with :func:`top_k`, the
  uncached ranking;
* :class:`ReferencePump` materialises each due query through
  ``OpenLoopWorkload.query`` with a per-element arrival walk.

Same seeds, same schedule: the production path must produce the same
responses, the same per-replica load and the same final round-robin
counter.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from collections import Counter

from repro.serve.router import MISS
from repro.serve.server import PHASE_PROGRESS, ReadResponse
from repro.serve.workload import NEIGHBORHOOD, POINT, TOPK, Query


def top_k(engine, k: int) -> list[tuple[int, Any]]:
    """The K masters with the largest committed values, recomputed: one
    sort of every alive node's masters."""
    ranked: list[tuple[Any, int]] = []
    for node in engine.cluster.alive_workers():
        lg = engine.local_graphs[node]
        topo = lg.cached_topology
        if topo is None:
            pos, meta = lg.slots.masters()
            gids = meta["gids"].tolist()
        else:
            pos = np.flatnonzero(topo.is_master)
            gids = topo.gids[pos].tolist()
        ranked.extend(zip(lg.values[pos].tolist(), gids))
    ranked.sort(key=lambda t: (-t[0], t[1]))
    return [(gid, value) for value, gid in ranked[:k]]


class ReferenceRouter:
    """Per-query routing over live engine state."""

    def __init__(self, engine, seed: int = 0, policy: str = "round_robin"):
        self.engine = engine
        self.policy = policy
        self.load: Counter[int] = Counter()
        self._rr = seed

    def candidates(self, gid: int) -> list[int]:
        """Nodes hosting a committed copy of ``gid``, master first (a
        fenced selfish vertex: its master only); stamps nothing."""
        engine = self.engine
        master = engine.master_node_of[gid]
        lg = engine.local_graphs[master]
        meta = lg.slots.metadata([lg.index_of[gid]])
        selfish, replicas = meta["selfish"][0], meta["replica_nodes"].tolist()
        if engine.selfish_opt_active and selfish:
            return [master]
        return [master] + sorted(replicas)

    def membership_ineligible(self) -> set[int]:
        cluster = self.engine.cluster
        return cluster._transitioning | cluster._retired

    def route(self, gid: int) -> tuple[int, bool]:
        if gid in self.engine.selfish_read_fence:
            return MISS, True
        candidates = self.candidates(gid)
        cluster = self.engine.cluster
        alive = [n for n in candidates if cluster.node(n).is_alive]
        degraded = (self.engine.in_recovery
                    or len(alive) < len(candidates))
        ineligible = self.membership_ineligible()
        eligible = [n for n in alive if n not in ineligible]
        if not eligible:
            master = candidates[0]
            if master in alive and master not in self.engine.cluster._retired:
                self.load[master] += 1
                return master, True
            return MISS, True
        if self.policy == "least_loaded":
            node = min(eligible, key=lambda n: (self.load[n], n))
        else:
            node = eligible[self._rr % len(eligible)]
            self._rr += 1
        self.load[node] += 1
        return node, degraded


class ReferenceServer:
    """Synchronous query execution, one response object per query."""

    def __init__(self, engine, seed: int = 0, policy: str = "round_robin",
                 neighborhood_limit: int = 16):
        self.engine = engine
        self.neighborhood_limit = neighborhood_limit
        self.router = ReferenceRouter(engine, seed=seed, policy=policy)
        self.responses: list[ReadResponse] = []
        self.misses = 0

    def serve(self, query: Query) -> ReadResponse:
        if query.kind == POINT:
            resp = self._serve_point(query.gid)
        elif query.kind == NEIGHBORHOOD:
            resp = self._serve_neighborhood(query.gid)
        elif query.kind == TOPK:
            resp = self._serve_topk(query.k)
        else:
            raise ValueError(f"unknown query kind {query.kind}")
        self.responses.append(resp)
        return resp

    def _serve_point(self, gid: int) -> ReadResponse:
        node, degraded = self.router.route(gid)
        if node == MISS:
            self.misses += 1
            value = None
        else:
            value = self.engine.committed_value_at(node, gid)
        return ReadResponse(gid=gid, kind=POINT, value=value,
                            superstep=self.engine.committed_iteration,
                            degraded=degraded, replica_node=node)

    def _serve_neighborhood(self, gid: int) -> ReadResponse:
        nbrs = self.engine.graph.out_neighbors(gid)
        nbrs = nbrs[:self.neighborhood_limit or nbrs.size].tolist()
        parts: list[tuple[int, Any]] = []
        degraded = self.engine.in_recovery
        node0 = MISS
        for nbr in nbrs:
            node, deg = self.router.route(nbr)
            degraded = degraded or deg
            if node == MISS:
                self.misses += 1
                parts.append((nbr, None))
                continue
            if node0 == MISS:
                node0 = node
            parts.append((nbr, self.engine.committed_value_at(node, nbr)))
        return ReadResponse(gid=gid, kind=NEIGHBORHOOD,
                            value=tuple(parts),
                            superstep=self.engine.committed_iteration,
                            degraded=degraded, replica_node=node0)

    def _serve_topk(self, k: int) -> ReadResponse:
        top = top_k(self.engine, k)
        engine = self.engine
        partial = bool(engine.selfish_read_fence) or (
            len(engine.cluster.alive_workers())
            < engine.cluster.expected_workers())
        return ReadResponse(
            gid=-1, kind=TOPK, value=tuple(top),
            superstep=self.engine.committed_iteration,
            degraded=engine.in_recovery or partial,
            replica_node=MISS)


class ReferencePump:
    """Engine serve hook: each due query, materialised, served alone."""

    def __init__(self, server: ReferenceServer, workload,
                 expected_supersteps: int):
        self.server = server
        self._workload = workload
        scale = expected_supersteps / workload.horizon_s
        self._arrival_progress = workload.arrival_s * scale
        self._next = 0

    def due(self, progress: float) -> list[Query]:
        arrivals = self._arrival_progress
        i = self._next
        out: list[Query] = []
        while i < arrivals.size and arrivals[i] <= progress:
            out.append(self._workload.query(i))
            i += 1
        self._next = i
        return out

    def on_phase(self, engine, phase: str) -> None:
        frac = PHASE_PROGRESS.get(phase)
        if frac is None:
            return
        for query in self.due(engine.iteration + frac):
            self.server.serve(query)

    def finish(self) -> None:
        for query in self.due(float("inf")):
            self.server.serve(query)

"""Replica-aware read routing: K+1 copies as free read fan-out.

Every vertex has ``ft_level + 1`` committed copies (master + replicas,
DESIGN.md §3) that agree at every barrier — the replica value-agreement
invariant — so a point read can be served by *any* alive copy.  The
:class:`ReplicaRouter` spreads reads across them with a seeded
round-robin or least-loaded policy and owns the degraded-mode policy
(DESIGN.md §13):

* a read is tagged ``degraded=True`` while the engine is inside
  recovery, or when any copy of the vertex sits on a dead node (the
  read falls back to a surviving replica);
* **selfish vertices are fenced to master-only routing** when the
  selfish-vertex optimisation is active (Section 4.4): their mirrors
  legitimately skip value syncs, and post-recovery recomputation
  refreshes only the master, so replica copies may be stale — exactly
  the reads the audit found and this fence closes;
* a vertex with *no* alive copy (mid-recovery, replication exhausted)
  yields a miss: ``node == -1``, always degraded.

Elastic membership (DESIGN.md §14): the router tracks the cluster's
``membership_epoch`` and rebuilds its ineligible-node set whenever the
epoch moves, so reads are never routed to a node that is joining
(state still arriving), draining (about to retire) or retired (local
graph gone).  When every copy of a vertex sits on a transitioning
node — possible for an instant mid-drain — the read falls back to the
master, which always holds the committed value until it moves.

Routing works one drain at a time (:meth:`ReplicaRouter.open_snapshot`):
the alive and ineligible node sets, the fence and the recovery flag are
snapshotted once per drain, and each gid's plan (candidates, eligible
copies, degraded tag) is cached for that drain only.  Routing decisions
are deterministic for a fixed seed and call sequence; per-replica load
counts feed the obs registry.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine

#: Sentinel node id for "no alive copy" misses.
MISS = -1


class ReplicaRouter:
    """Seeded replica-selection policy over a live engine's placement."""

    def __init__(self, engine: "Engine", seed: int = 0,
                 policy: str = "round_robin"):
        if policy not in ("round_robin", "least_loaded"):
            raise ConfigError(f"unknown routing policy {policy!r}; "
                              "expected 'round_robin' or 'least_loaded'")
        self.engine = engine
        self.policy = policy
        #: Reads served per node (the per-replica load report).
        self.load: Counter[int] = Counter()
        self._rr = seed
        #: Membership-epoch cache: the ineligible-node set is rebuilt
        #: only when the cluster's epoch moves (DESIGN.md §14).
        self._epoch = -1
        self._ineligible: frozenset[int] = frozenset()
        #: The open drain's plan cache (``None`` outside a drain).
        self._plans: dict[int, tuple] | None = None

    # -- placement -------------------------------------------------------

    def candidates(self, gid: int) -> list[int]:
        """Nodes hosting a committed copy of ``gid``, master first.

        Selfish vertices under the active selfish optimisation are
        fenced to their master (see module docstring).  Nothing is
        stamped (``SlotArray.placement``).
        """
        engine = self.engine
        master = engine.master_node_of[gid]
        lg = engine.local_graphs[master]
        selfish, replicas = lg.slots.placement(lg.index_of[gid])
        if engine.selfish_opt_active and selfish:
            return [master]
        return [master] + sorted(replicas)

    def membership_ineligible(self) -> frozenset[int]:
        """Nodes no read may be routed to: joining, draining, retired.

        Epoch-keyed — recomputed only when ``membership_epoch`` moves,
        so static clusters pay one set lookup per read.
        """
        cluster = self.engine.cluster
        epoch = cluster.membership_epoch
        if epoch != self._epoch:
            self._ineligible = frozenset(cluster._transitioning
                                         | cluster._retired)
            self._epoch = epoch
        return self._ineligible

    # -- routing ---------------------------------------------------------

    def open_snapshot(self) -> None:
        """Open a routing snapshot: what cannot change until the drain
        ends — alive nodes, the membership-ineligible set, the selfish
        read fence, ``in_recovery`` — plus an empty per-drain plan cache.

        Placement is cached for one drain only: recovery and membership
        changes mutate a stamped slot's replica positions in place.
        """
        engine = self.engine
        self._dead = {nid for nid, node in engine.cluster.nodes.items()
                      if not node.is_alive}
        self._drain_ineligible = self.membership_ineligible()
        self._unusable = self._dead | self._drain_ineligible
        self._fence = engine.selfish_read_fence
        self._in_recovery = engine.in_recovery
        self._plans = {}

    def close_snapshot(self) -> None:
        self._plans = None

    def _plan(self, gid: int) -> tuple[list[int], int, bool]:
        """``(eligible, fixed, degraded)`` for ``gid`` under the open
        snapshot; ``fixed`` is the node serving the read (without the
        policy) when no copy is eligible."""
        # A selfish master recomputed by recovery holds the value the
        # retry will commit, and no surviving copy holds the committed
        # one — a degraded miss until the next barrier closes the
        # window (see ``Engine.selfish_read_fence``).
        if gid in self._fence:
            return [], MISS, True
        candidates = self.candidates(gid)
        if self._unusable.isdisjoint(candidates):
            return candidates, MISS, self._in_recovery
        dead = self._dead
        alive = [n for n in candidates if n not in dead]
        degraded = self._in_recovery or len(alive) < len(candidates)
        ineligible = self._drain_ineligible
        eligible = [n for n in alive if n not in ineligible]
        if not eligible:
            # Every copy sits on a transitioning node (possible for an
            # instant mid-drain).  The master still holds the committed
            # value until its move lands — serve it, tagged degraded —
            # but never route to a node whose local graph may be gone.
            master = candidates[0]
            if master in alive and master not in self.engine.cluster._retired:
                return [], master, True
            return [], MISS, True
        return eligible, MISS, degraded

    def route(self, gid: int) -> tuple[int, bool]:
        """Pick the copy that serves this read.

        Returns ``(node, degraded)``; ``node`` is :data:`MISS` when no
        copy is alive.  Reads the open drain's snapshot; a call outside
        a drain opens a one-query snapshot.
        """
        plans = self._plans
        if plans is None:
            self.open_snapshot()
            try:
                return self.route(gid)
            finally:
                self.close_snapshot()
        plan = plans.get(gid)
        if plan is None:
            plan = plans[gid] = self._plan(gid)
        eligible, node, degraded = plan
        if not eligible:
            if node != MISS:
                self.load[node] += 1
            return node, degraded
        if self.policy == "least_loaded":
            node = min(eligible, key=lambda n: (self.load[n], n))
        else:
            node = eligible[self._rr % len(eligible)]
            self._rr += 1
        self.load[node] += 1
        return node, degraded

    # -- reporting -------------------------------------------------------

    def publish_load(self, metrics) -> None:
        """Export per-replica load as ``serve.load.node.N`` gauges."""
        for node, count in sorted(self.load.items()):
            metrics.set_gauge(f"serve.load.node.{node}", count)

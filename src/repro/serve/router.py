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

Routing decisions are deterministic for a fixed seed and call sequence;
per-replica load counts feed the obs registry.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine

#: Sentinel node id for "no alive copy" misses.
MISS = -1


class ReplicaRouter:
    """Seeded replica-selection policy over a live engine's placement."""

    def __init__(self, engine: "Engine", seed: int = 0,
                 policy: str = "round_robin"):
        if policy not in ("round_robin", "least_loaded"):
            raise ValueError(f"unknown routing policy {policy!r}")
        self.engine = engine
        self.policy = policy
        #: Reads served per node (the per-replica load report).
        self.load: Counter[int] = Counter()
        self._rr = seed
        #: Membership-epoch cache: the ineligible-node set is rebuilt
        #: only when the cluster's epoch moves (DESIGN.md §14).
        self._epoch = -1
        self._ineligible: frozenset[int] = frozenset()

    # -- placement -------------------------------------------------------

    def candidates(self, gid: int) -> list[int]:
        """Nodes hosting a committed copy of ``gid``, master first.

        Selfish vertices under the active selfish optimisation are
        fenced to their master (see module docstring).
        """
        engine = self.engine
        master = engine.master_node_of[gid]
        slot = engine.local_graphs[master].slot_of(gid)
        if engine.selfish_opt_active and slot.selfish:
            return [master]
        return [master] + sorted(slot.meta.replica_positions)

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

    def route(self, gid: int) -> tuple[int, bool]:
        """Pick the copy that serves this read.

        Returns ``(node, degraded)``; ``node`` is :data:`MISS` when no
        copy is alive.
        """
        # A selfish master recomputed by recovery holds the value the
        # retry will commit, and no surviving copy holds the committed
        # one — a degraded miss until the next barrier closes the
        # window (see ``Engine.selfish_read_fence``).
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
            # Every copy sits on a transitioning node (possible for an
            # instant mid-drain).  The master still holds the committed
            # value until its move lands — serve it, tagged degraded —
            # but never route to a node whose local graph may be gone.
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

    # -- reporting -------------------------------------------------------

    def publish_load(self, metrics) -> None:
        """Export per-replica load as ``serve.load.node.N`` gauges."""
        for node, count in sorted(self.load.items()):
            metrics.set_gauge(f"serve.load.node.{node}", count)

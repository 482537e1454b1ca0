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

Routing works one drain at a time (:meth:`ReplicaRouter.route_reads`)
over a gid-indexed candidate table: each gid's row lists its master,
then its replicas by node id, with each copy's position on its node.
A node's rows are re-derived only when its structure version moves
(:attr:`LocalGraph.structure`), from its cached image or else from
``SlotArray.metadata``.  Routing decisions are deterministic for a
fixed seed and call sequence; per-replica load counts feed the obs
registry.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError
from repro.utils.arrays import sorted_unique, stable_order

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
        #: The candidate table, one row per gid: the nodes holding a
        #: copy (master first, then replicas by node id), each copy's
        #: position there, how many there are, the selfish flag.
        n = engine.graph.num_vertices
        self._nodes = np.full((n, 1), MISS, dtype=np.int32)
        self._positions = np.zeros((n, 1), dtype=np.int32)
        self._count = np.zeros(n, dtype=np.int32)
        self._selfish = np.zeros(n, dtype=bool)
        #: node -> (structure version, gids, nodes named) of the rows it
        #: last wrote.
        self._rows: dict[int, tuple[int, np.ndarray, frozenset]] = {}

    # -- placement -------------------------------------------------------

    def candidates(self, gid: int) -> list[int]:
        """Nodes hosting a committed copy of ``gid``, master first.

        Selfish vertices under the active selfish optimisation are
        fenced to their master (see module docstring).
        """
        self._refresh()
        count = self._count[gid]
        if self.engine.selfish_opt_active and self._selfish[gid]:
            count = min(count, 1)
        return self._nodes[gid, :count].tolist()

    def membership_ineligible(self) -> frozenset[int]:
        """Nodes no read may be routed to: joining, draining, retired."""
        cluster = self.engine.cluster
        return frozenset(cluster._transitioning | cluster._retired)

    def _refresh(self) -> None:
        """Re-derive the rows of every node whose structure moved."""
        rows = self._rows
        for node, lg in self.engine.local_graphs.items():
            if node not in rows or rows[node][0] != lg.structure:
                self._derive(node, lg)

    def _derive(self, node: int, lg) -> None:
        """Write the rows of the masters on ``node``: from its cached
        image (``sync_plan`` covers every replica), else from
        ``SlotArray.metadata`` — a read builds no image, stamps no slot."""
        topo = lg.cached_topology
        if topo is not None:
            pos = np.flatnonzero(topo.is_master)
            gids, selfish = topo.gids[pos], topo.selfish[pos]
            rgids, rpos = topo.gids[topo.sync_pos], topo.sync_peer
            rnodes = np.repeat(np.array([dst for dst, _ in topo.sync_plan],
                                        dtype=np.int64),
                               np.diff(topo.sync_ptr))
        else:
            pos, meta = lg.slots.masters()
            gids, selfish = meta["gids"], meta["selfish"]
            rgids = np.repeat(gids, np.diff(meta["replica_ptr"]))
            rnodes, rpos = meta["replica_nodes"], meta["replica_positions"]
        size = self._count.size
        if not self.engine.cluster.node(node).is_alive:
            # A crashed node's graph keeps the roles it had: only the
            # masters ``master_node_of`` still places here get rows.
            owner = self.engine.master_node_of
            held = np.zeros(size, dtype=bool)
            held[[g for g in gids.tolist() if owner[g] == node]] = True
            mine, keep = held[gids], held[rgids]
            gids, pos, selfish = gids[mine], pos[mine], selfish[mine]
            rgids, rnodes, rpos = rgids[keep], rnodes[keep], rpos[keep]
        # Replicas by (gid, node): two stable radix passes; a replica's
        # column is 1 + its rank among its gid's.
        order = stable_order(rnodes, int(rnodes.max(initial=0)) + 1)
        order = order[stable_order(rgids[order], size)]
        rgids, rnodes, rpos = rgids[order], rnodes[order], rpos[order]
        replicas = np.bincount(rgids, minlength=size)
        col = 1 + np.arange(rgids.size) - (np.cumsum(replicas)
                                           - replicas)[rgids]
        width = 1 + int(col.max(initial=0))
        if width > self._nodes.shape[1]:
            grow = ((0, 0), (0, width - self._nodes.shape[1]))
            self._nodes = np.pad(self._nodes, grow, constant_values=MISS)
            self._positions = np.pad(self._positions, grow)
        old = self._rows.get(node)
        if old is not None:
            old = old[1]
            self._count[old[self._nodes[old, 0] == node]] = 0
        self._nodes[gids, 0] = node
        self._positions[gids, 0] = pos
        self._count[gids] = 1 + replicas[gids]
        self._nodes[rgids, col] = rnodes
        self._positions[rgids, col] = rpos
        self._selfish[gids] = selfish
        self._rows[node] = (lg.structure, gids, frozenset(
            sorted_unique(rnodes).tolist()) | {node})

    # -- routing ---------------------------------------------------------

    def route(self, gid: int) -> tuple[int, bool]:
        """Route one read: ``(node, degraded)``, ``node`` :data:`MISS`
        when no copy is alive."""
        node, _, degraded = self.route_reads(np.array([gid]))
        return int(node[0]), bool(degraded[0])

    def route_reads(self, gids: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Route one read per entry of ``gids``, in order, under one
        snapshot of the alive and membership-ineligible nodes, the
        selfish read fence and ``in_recovery``.  Returns each read's
        serving node (:data:`MISS` on a miss), the copy's position there
        and its degraded tag; ``load`` and ``_rr`` advance as if the
        reads were routed one by one."""
        self._refresh()
        engine, cluster = self.engine, self.engine.cluster
        count = self._count[gids]
        if engine.selfish_opt_active:
            count = np.where(self._selfish[gids], count.clip(max=1), count)
        down = [nid for nid, n in cluster.nodes.items() if not n.is_alive]
        blocked = self.membership_ineligible().union(down)
        eligible = None
        if (self.policy == "least_loaded" or engine.selfish_read_fence
                or not blocked.isdisjoint(
                    n for *_, named in self._rows.values() for n in named)):
            # Node status by node id; the last entry is the MISS pad's.
            dead = np.zeros(max(cluster.nodes) + 2, dtype=bool)
            dead[[*down, -1]] = True
            ineligible, retired = dead.copy(), np.zeros_like(dead)
            ineligible[list(blocked)] = True
            retired[list(cluster._retired)] = True
            nodes = np.where(np.arange(self._nodes.shape[1]) < count[:, None],
                             self._nodes[gids], MISS)
            alive, eligible = ~dead[nodes], ~ineligible[nodes]
            degraded = engine.in_recovery | (alive.sum(axis=1) < count)
            # A selfish master recomputed by recovery holds the value the
            # retry will commit, and no surviving copy holds the
            # committed one — a degraded miss until the next barrier
            # closes the window (see ``Engine.selfish_read_fence``).
            fenced = np.zeros(self._count.size, dtype=bool)
            fenced[list(engine.selfish_read_fence)] = True
            fenced = fenced[gids]
            choices = np.where(fenced, 0, eligible.sum(axis=1))
            # Every copy on a transitioning node (possible for an instant
            # mid-drain): the master still holds the committed value
            # until its move lands — serve it, tagged degraded — but
            # never a node whose local graph may be gone.
            fallback = (alive[:, 0] & ~retired[nodes[:, 0]] & ~fenced
                        & (choices == 0))
        else:
            degraded = np.full(gids.size, engine.in_recovery)
            choices, fallback = count, np.zeros(gids.size, dtype=bool)
        has = choices > 0
        col = np.zeros(gids.size, dtype=np.intp)
        if self.policy == "least_loaded":
            rows = np.where(eligible, nodes, MISS).tolist()
            load = self.load
            for i in np.flatnonzero(has | fallback).tolist():
                # The copy with the fewest reads so far, ties to the
                # lower node; a fallback read takes the master.
                if has[i]:
                    col[i] = min((load[n], n, c) for c, n in
                                 enumerate(rows[i]) if n != MISS)[2]
                load[int(self._nodes[gids[i], col[i]])] += 1
        else:
            ticket = (self._rr - 1 + np.cumsum(has))[has] % choices[has]
            # The ticket-th eligible copy (all are, outside a recovery).
            col[has] = ticket if eligible is None else np.argmax(
                np.cumsum(eligible[has], axis=1) > ticket[:, None], axis=1)
            self._rr += int(np.count_nonzero(has))
        node = np.where(has | fallback, self._nodes[gids, col], MISS)
        if self.policy == "round_robin":
            tally = np.bincount(node[node != MISS])
            for n in np.flatnonzero(tally).tolist():
                self.load[n] += int(tally[n])
        return node, self._positions[gids, col], degraded | ~has

    # -- reporting -------------------------------------------------------

    def publish_load(self, metrics) -> None:
        """Export per-replica load as ``serve.load.node.N`` gauges."""
        for node, count in sorted(self.load.items()):
            metrics.set_gauge(f"serve.load.node.{node}", count)

"""Replication-invariant checker (DESIGN.md P2/P3/P6 + engine indexes).

Attached as an engine chaos plugin, the checker re-verifies after every
committed superstep (``post_commit``) and after every completed recovery
(``post_recovery``) that the cluster is in a state from which any
``ft_level``-bounded failure is recoverable:

* **Master placement** — every vertex has exactly one master, hosted on
  an alive node, with self-consistent metadata (P3);
* **K+1 replication** — every vertex has at least ``min(K+1, alive)``
  copies on distinct alive nodes and at least ``min(K, replicas)``
  full-state mirrors (P2/P6);
* **Value agreement** — every replica's committed value equals its
  master's (mirrors *and* plain replicas), except selfish vertices when
  the selfish optimisation legitimately skips their sync (Section 4.4);
* **Active-set consistency** — each node's ``active_masters`` /
  ``active_others`` indexes match the slots' flags, the gid index maps
  to the right slots, and vertex-cut masters whose activity diverged
  from what replicas believe are queued for re-broadcast;
* **SoA coherence** — every cached ``NodeTopology`` and every retained
  executor state's committed columns equal ones built fresh from the
  slots: a write that skipped its invalidation shows here (DESIGN.md §11).

Violations raise :class:`InvariantViolation` carrying an optional
context string (the chaos harness puts the reproduction command there).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.config import FTMode
from repro.engine.soa import NodeTopology
from repro.errors import FaultToleranceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


class InvariantViolation(FaultToleranceError):
    """A replication/consistency invariant failed to hold."""


class InvariantChecker:
    """Engine plugin asserting replication invariants at barriers."""

    def __init__(self, context: str = "",
                 check_values: bool = True):
        #: Extra text appended to violation messages (e.g. the one-line
        #: reproduction command of the failing chaos schedule).
        self.context = context
        self.check_values = check_values
        #: Number of full invariant sweeps performed.
        self.checks = 0

    # -- engine plugin hook -----------------------------------------------

    def on_phase(self, engine: "Engine", phase: str) -> None:
        if phase in ("post_commit", "post_recovery"):
            self.check_all(engine, phase)

    # -- checks ------------------------------------------------------------

    def check_all(self, engine: "Engine", phase: str = "manual") -> None:
        self.checks += 1
        alive = engine._alive()
        self._check_local_indexes(engine, alive, phase)
        self._check_masters(engine, alive, phase)
        if engine.job.ft.mode is FTMode.REPLICATION:
            self._check_replication(engine, alive, phase)
        if self.check_values:
            self._check_value_agreement(engine, alive, phase)
        if not engine.is_edge_cut and phase == "post_commit":
            self._check_broadcast_queue(engine, alive, phase)
        # Last: a corrupted slot is reported as what it is above.
        self._check_soa_coherence(engine, alive, phase)

    def _fail(self, phase: str, message: str) -> None:
        suffix = f" [{self.context}]" if self.context else ""
        raise InvariantViolation(f"[{phase}] {message}{suffix}")

    def _check_local_indexes(self, engine: "Engine", alive: list[int],
                             phase: str) -> None:
        for node in alive:
            lg = engine.local_graphs[node]
            for gid, pos in lg.index_of.items():
                slot = lg.slots[pos] if pos < len(lg.slots) else None
                if slot is None or slot.gid != gid:
                    self._fail(phase, f"node {node}: index maps vertex "
                                      f"{gid} to position {pos} holding "
                                      f"{getattr(slot, 'gid', None)}")
            want_masters = {s.gid for s in lg.iter_masters() if s.active}
            want_others = {s.gid for s in lg.iter_slots()
                           if not s.is_master and s.active}
            if lg.active_masters != want_masters:
                self._fail(phase, f"node {node}: active_masters index "
                                  f"diverged (index {sorted(lg.active_masters)}"
                                  f" vs flags {sorted(want_masters)})")
            if lg.active_others != want_others:
                self._fail(phase, f"node {node}: active_others index "
                                  f"diverged")

    def _check_masters(self, engine: "Engine", alive: list[int],
                       phase: str) -> None:
        alive_set = set(alive)
        for gid in range(engine.graph.num_vertices):
            node = engine.master_node_of[gid]
            if node not in alive_set:
                self._fail(phase, f"vertex {gid}: master node {node} is "
                                  f"not alive")
            lg = engine.local_graphs[node]
            if gid not in lg.index_of:
                self._fail(phase, f"vertex {gid}: not present on its "
                                  f"master node {node}")
            slot = lg.slot_of(gid)
            if not slot.is_master:
                self._fail(phase, f"vertex {gid}: slot on node {node} has "
                                  f"role {slot.role.value}, not master")
            meta = slot.meta
            if meta is None:
                self._fail(phase, f"vertex {gid}: master has no metadata")
            if meta.master_node != node:
                self._fail(phase, f"vertex {gid}: metadata names master "
                                  f"node {meta.master_node}, hosted on "
                                  f"{node}")
            if meta.master_position != lg.position_of(gid):
                self._fail(phase, f"vertex {gid}: metadata position "
                                  f"{meta.master_position} != actual "
                                  f"{lg.position_of(gid)}")

    def _check_replication(self, engine: "Engine", alive: list[int],
                           phase: str) -> None:
        # Under an adaptive floor policy the yardstick is the floor the
        # control plane currently *enforces* (risen repair has actually
        # completed), not the static configured K (DESIGN.md §14).
        k = engine.membership.enforced_floor
        alive_set = set(alive)
        for gid in range(engine.graph.num_vertices):
            node = engine.master_node_of[gid]
            meta = engine.local_graphs[node].slot_of(gid).meta
            copies = 1 + len(meta.replica_positions)
            if copies < min(k + 1, len(alive_set)):
                self._fail(phase, f"vertex {gid}: only {copies} copies, "
                                  f"K+1 invariant needs "
                                  f"{min(k + 1, len(alive_set))}")
            if node in meta.replica_positions:
                self._fail(phase, f"vertex {gid}: master node listed as "
                                  f"its own replica")
            mirrors = meta.mirror_nodes
            if len(set(mirrors)) != len(mirrors):
                self._fail(phase, f"vertex {gid}: duplicate mirror nodes "
                                  f"{mirrors}")
            if len(mirrors) < min(k, len(meta.replica_positions)):
                self._fail(phase, f"vertex {gid}: {len(mirrors)} mirrors "
                                  f"for ft_level {k}")
            if not set(mirrors) <= set(meta.replica_positions):
                self._fail(phase, f"vertex {gid}: mirror not in replica "
                                  f"set")
            for rnode, pos in meta.replica_positions.items():
                if rnode not in alive_set:
                    self._fail(phase, f"vertex {gid}: replica recorded on "
                                      f"dead node {rnode}")
                rslot = engine.local_graphs[rnode].slot_at(pos)
                if rslot is None or rslot.gid != gid:
                    self._fail(phase, f"vertex {gid}: stale replica "
                                      f"position {pos} on node {rnode}")
                if rslot.master_node != node:
                    self._fail(phase, f"vertex {gid}: replica on node "
                                      f"{rnode} believes master is "
                                      f"{rslot.master_node}, not {node}")
            for mnode in mirrors:
                mslot = engine.local_graphs[mnode].slot_of(gid)
                if not mslot.is_mirror:
                    self._fail(phase, f"vertex {gid}: elected mirror on "
                                      f"node {mnode} has role "
                                      f"{mslot.role.value}")
                if mslot.meta is None:
                    self._fail(phase, f"vertex {gid}: mirror on node "
                                      f"{mnode} lacks the metadata copy")
                if mslot.meta.master_node != node:
                    self._fail(phase, f"vertex {gid}: mirror metadata "
                                      f"names master {mslot.meta.master_node}")

    def _check_value_agreement(self, engine: "Engine", alive: list[int],
                               phase: str) -> None:
        skip_selfish = engine.selfish_opt_active
        for node in alive:
            lg = engine.local_graphs[node]
            for slot in lg.iter_masters():
                if slot.meta is None:
                    continue
                if skip_selfish and slot.selfish:
                    continue  # sync legitimately skipped (Section 4.4)
                for rnode, pos in slot.meta.replica_positions.items():
                    rslot = engine.local_graphs[rnode].slot_at(pos)
                    if rslot is None or rslot.gid != slot.gid:
                        continue  # reported by _check_replication
                    if rslot.value != slot.value:
                        self._fail(
                            phase,
                            f"vertex {slot.gid}: replica on node {rnode} "
                            f"holds {rslot.value!r}, master on {node} "
                            f"holds {slot.value!r}")

    def _check_broadcast_queue(self, engine: "Engine", alive: list[int],
                               phase: str) -> None:
        for node in alive:
            lg = engine.local_graphs[node]
            pending = engine._broadcast_pending.get(node, set())
            for slot in lg.iter_masters():
                if (slot.active != slot.replicas_known_active
                        and slot.gid not in pending):
                    self._fail(phase, f"vertex {slot.gid}: activity "
                                      f"changed but no re-broadcast is "
                                      f"queued on node {node}")

    def _check_soa_coherence(self, engine: "Engine", alive: list[int],
                             phase: str) -> None:
        vec = engine._vec
        for node in alive:
            lg = engine.local_graphs[node]
            cached = lg.cached_topology
            if cached is None:
                continue
            fresh = NodeTopology.build(lg)
            pairs = [(f"topology field {name!r}", getattr(cached, name),
                      getattr(fresh, name))
                     for name in NodeTopology.__slots__]
            st = vec.valid_state(node) if vec is not None else None
            if st is not None:
                vec.flush()
                slots = vec.proto.new_state(lg)
                pairs += [(f"committed column {name!r}", getattr(st, name),
                           getattr(slots, name)) for name in (
                    "values", "active", "last_activates", "last_update",
                    "mirror_self_active", "replicas_known_active")]
            for what, have, want in pairs:
                # ``sync_plan``: a dict whose key order is send order.
                same = (list(have) == list(want) and all(
                    np.array_equal(have[k], want[k]) for k in want)
                    if isinstance(want, dict)
                    else np.array_equal(have, want))
                if not same:
                    self._fail(phase, f"node {node}: cached {what} "
                                      f"diverged from the slots")


class MembershipInvariant:
    """Elastic-membership invariant checker (DESIGN.md §14).

    Attached as a chaos plugin; at every commit point (``post_commit``
    and ``post_recovery``) it asserts the membership layer left the
    cluster in a self-consistent state:

    * **Retirement is clean** — a retired node hosts no local graph and
      appears in no master's replica metadata;
    * **Exactly one master** — every vertex has exactly one master slot
      across all hosted local graphs, on an alive node, matching the
      engine's ``master_node_of`` index;
    * **Floor coverage** — every vertex has at least
      ``min(enforced_floor + 1, eligible_nodes)`` copies, where the
      enforced floor is what the adaptive policy currently promises;
    * **Routing eligibility** — transitioning (joining or draining) and
      retired nodes are never read-eligible.
    """

    def __init__(self, context: str = ""):
        self.context = context
        #: Number of commit-point sweeps performed.
        self.checks = 0

    def on_phase(self, engine: "Engine", phase: str) -> None:
        if phase in ("post_commit", "post_recovery"):
            self.check_all(engine, phase)

    def _fail(self, phase: str, message: str) -> None:
        suffix = f" [{self.context}]" if self.context else ""
        raise InvariantViolation(f"[{phase}] {message}{suffix}")

    def check_all(self, engine: "Engine", phase: str = "manual") -> None:
        self.checks += 1
        cluster = engine.cluster
        for node in engine.local_graphs:
            if node in cluster._retired:
                self._fail(phase, f"retired node {node} still hosts a "
                                  f"local graph")
        for node in cluster._transitioning | cluster._retired:
            if cluster.read_eligible(node):
                self._fail(phase, f"node {node} is transitioning or "
                                  f"retired but still read-eligible")
        # Exactly one master per vertex, where the engine thinks it is.
        owner: dict[int, int] = {}
        for node, lg in engine.local_graphs.items():
            if not cluster.node(node).is_alive:
                continue
            for slot in lg.iter_masters():
                if slot.gid in owner:
                    self._fail(phase, f"vertex {slot.gid}: masters on "
                                      f"both node {owner[slot.gid]} and "
                                      f"node {node}")
                owner[slot.gid] = node
        for gid in range(engine.graph.num_vertices):
            node = owner.get(gid)
            if node is None:
                self._fail(phase, f"vertex {gid}: no master on any "
                                  f"alive node")
            if engine.master_node_of[gid] != node:
                self._fail(phase, f"vertex {gid}: master hosted on node "
                                  f"{node} but master_node_of says "
                                  f"{engine.master_node_of[gid]}")
        if engine.job.ft.mode is not FTMode.REPLICATION:
            return
        floor = engine.membership.enforced_floor
        eligible = sum(1 for n in engine.local_graphs
                       if cluster.placement_eligible(n))
        need = min(floor + 1, max(1, eligible))
        for node, lg in engine.local_graphs.items():
            if not cluster.node(node).is_alive:
                continue
            for slot in lg.iter_masters():
                copies = 1 + len(slot.meta.replica_positions)
                if copies < need:
                    self._fail(
                        phase,
                        f"vertex {slot.gid}: {copies} copies, the "
                        f"current floor ({floor}) needs {need}")
                for rnode in slot.meta.replica_positions:
                    if rnode in cluster._retired:
                        self._fail(phase,
                                   f"vertex {slot.gid}: replica "
                                   f"recorded on retired node {rnode}")


class ReadConsistencyChecker:
    """Serve-hook twin of the value-agreement invariant (DESIGN.md §13).

    Attached via :meth:`Engine.attach_serve` (NOT as a chaos plugin):
    serve hooks run *before* any chaos-driven column flush, so every
    comparison goes through the flush-free committed read path
    (:meth:`Engine.committed_value_at`) — exactly what the read router
    serves.  At every commit point (``post_commit``/``post_recovery``)
    it asserts that each master's committed read equals the committed
    read of every alive replica copy, i.e. that routing a read to *any*
    replica is value-equivalent to reading the master.

    Skips mirror the router's own fences: selfish vertices under the
    active selfish optimisation (their mirrors legitimately skip syncs
    and the router pins them to the master), and gids inside
    ``engine.selfish_read_fence`` (recovery-recomputed; the router
    serves them as degraded misses until the next commit).
    """

    def __init__(self, context: str = ""):
        self.context = context
        #: Number of commit-point sweeps performed.
        self.checks = 0

    def on_phase(self, engine: "Engine", phase: str) -> None:
        if phase not in ("post_commit", "post_recovery"):
            return
        self.checks += 1
        skip_selfish = engine.selfish_opt_active
        fence = engine.selfish_read_fence
        for node in engine._alive():
            lg = engine.local_graphs[node]
            for slot in lg.iter_masters():
                if slot.meta is None:
                    continue
                if (skip_selfish and slot.selfish) or slot.gid in fence:
                    continue
                master_value = engine.committed_value_at(node, slot.gid)
                for rnode in slot.meta.replica_positions:
                    if not engine.cluster.node(rnode).is_alive:
                        continue
                    replica_value = engine.committed_value_at(rnode,
                                                              slot.gid)
                    if replica_value != master_value:
                        suffix = (f" [{self.context}]"
                                  if self.context else "")
                        raise InvariantViolation(
                            f"[{phase}] vertex {slot.gid}: committed "
                            f"read off replica node {rnode} returns "
                            f"{replica_value!r}, master node {node} "
                            f"returns {master_value!r} — replica-read "
                            f"consistency broken at superstep "
                            f"{engine.committed_iteration}{suffix}")

"""Elastic membership and the adaptive FT control plane (DESIGN.md §14).

:class:`MembershipManager` is ``engine.membership``, the job-side half
of the paper's ZooKeeper-like coordination service: ``Engine.run``
calls it at two barrier points (``superstep_start``, ``post_commit``),
and the chaos controller, the recovery ladder, the invariant checkers
and the multiprocessing backend call it directly.  It owns the event
schedule (one parser for both backends, :func:`parse_membership`),
flaps (stalls below the death budget, delta re-synced at the next
commit), the adaptive replication floor (:class:`FtPolicy` and its
throttled repair), the run's report, and every membership change:

* a **join** admits a fresh node, plans an incremental Fennel
  rebalance pulling a balanced share of masters onto it, and marks the
  node read-eligible once the transfer completes;
* a **drain** plans the reverse — every master moves off — then prunes
  the node's remaining replica copies, re-homes the lost mirrors and
  retires the node.

State transfer is *throttled*: each commit barrier moves at most
``MAX_MOVE_FRACTION`` of one node's share of the masters, so a
membership change never stalls the job for more than that fraction of
a superstep — it just stretches over more barriers.  All movement runs
at commit boundaries where every copy holds the committed value, which
keeps the whole mechanism value-neutral (the differential oracle
compares elastic runs bit-for-bit against static ones).

A crashed join/drain target aborts the operation — the failure
detector and the recovery ladder own crashed nodes; membership only
ever handles planned change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cluster.network import MessageKind
from repro.config import FTMode
from repro.costmodel import pairwise_comm_time
from repro.engine.local_graph import LocalGraph
from repro.engine.messages import SyncBatch
from repro.errors import ConfigError
from repro.ft import _recovery_common as common
from repro.ft import ladder
from repro.membership.policy import FtPolicy
from repro.membership.rebalance import move_master, prune_node_copies
from repro.partition.fennel import fennel_rebalance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine

#: Event kind -> the barrier hook it fires at: a flap stalls its target
#: for the superstep, joins and drains apply at the commit barrier.
DUE_PHASE = {"flap": "superstep_start", "join": "post_commit",
             "drain": "post_commit"}


def parse_membership(events, engine: "Engine"
                     ) -> list[tuple[int, str, Any, int]]:
    """Normalise ``(iteration, kind, target[, count])`` events to
    4-tuples, or raise :class:`ConfigError`: unknown kind, missing
    target, join ``count < 1``, a join/drain the job cannot support, or
    a drain/flap target with no local graph and no join before it."""
    parsed: list[tuple[int, str, Any, int]] = []
    first_join = min((int(event[0]) for event in events
                      if event[1] == "join"), default=None)
    for event in events:
        iteration, kind, target = int(event[0]), event[1], event[2]
        count = int(event[3]) if len(event) > 3 else 1
        if kind not in DUE_PHASE:
            raise ConfigError(f"unknown membership event kind {kind!r}")
        if kind == "join":
            _check_join(engine, count)
            target = None
        else:
            if target is None:
                raise ConfigError(f"{kind} events need a target rank")
            target = int(target)
            if kind == "drain":
                check_supported(engine)
            if target not in engine.local_graphs and (
                    first_join is None or iteration <= first_join):
                raise ConfigError(f"cannot {kind} rank {target}: the job "
                                  f"has no such rank")
        parsed.append((iteration, kind, target, count))
    return parsed


def _check_join(engine: "Engine", count: int) -> None:
    if count < 1:
        raise ConfigError(f"join events need count >= 1, got {count}")
    check_supported(engine)


def check_supported(engine: "Engine") -> None:
    """Validate that the job shape supports joins and drains."""
    job = engine.job
    if not (engine.is_edge_cut and job.ft.mode is FTMode.REPLICATION):
        raise ConfigError(
            "joins and drains need replication over an edge-cut "
            "partitioning (moves piggyback on the replica machinery, "
            "and vertex-cut partial gathers cannot follow a moving "
            "master)")
    if job.ft.safety_checkpoint_interval:
        raise ConfigError(
            "elastic membership is incompatible with safety "
            "checkpoints: snapshot recovery rebuilds the loading-time "
            "layout and would resurrect retired nodes")


@dataclass
class MembershipOp:
    """One in-flight membership change."""

    kind: str  # "join" | "drain"
    node: int
    #: Masters still to move: (gid, destination node).
    pending: list[tuple[int, int]] = field(default_factory=list)
    moves_done: int = 0


class MembershipManager:
    """Membership schedule, join/drain/flap, the replication floors and
    their barrier-time pumps, for one engine."""

    #: Share of one node's masters movable per commit barrier.
    MAX_MOVE_FRACTION = 0.25

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._queue: list[MembershipOp] = []
        self.completed: list[MembershipOp] = []
        # Lifetime accounting (the elastic benchmark reads these).
        self.moves_total = 0
        self.bytes_total = 0
        self.transfer_sim_s = 0.0
        #: Adaptive replication-floor controller, active only when the
        #: config declares a [ft_level_min, ft_level_max] band.
        self.policy = (FtPolicy(engine.job.ft)
                       if engine.job.ft.adaptive_ft else None)
        #: Scheduled events: (iteration, kind, target, count).
        self._schedule: list[tuple[int, str, Any, int]] = []
        #: Nodes that flapped since the last commit barrier; delta
        #: re-synced at the next ``post_commit`` (inboxes are empty
        #: there, so the resync cannot race in-flight superstep syncs).
        self._flapped: list[int] = []

    @property
    def active(self) -> bool:
        return bool(self._queue)

    # -- floors ---------------------------------------------------------

    @property
    def effective_floor(self) -> int:
        """The replication floor repair currently *targets*."""
        if self.policy is not None:
            return self.policy.floor_target
        return self.engine.job.ft.ft_level

    @property
    def enforced_floor(self) -> int:
        """The floor invariants and gauges hold the cluster to.

        With an adaptive policy this rises only as background repair
        actually completes (``min(target, achieved)``); otherwise it is
        the static configured K.
        """
        if self.policy is not None:
            return self.policy.floor_enforced
        return self.engine.job.ft.ft_level

    # -- requests -------------------------------------------------------

    def schedule(self, events) -> list[tuple[int, str, Any, int]]:
        """Validate and queue events (returned parsed): joins and drains
        apply at the commit barrier *of* their iteration, a flap stalls
        its target for that iteration's superstep."""
        parsed = parse_membership(events, self.engine)
        self._schedule.extend(parsed)
        return parsed

    def due(self, iteration: int, phase: str) -> list[tuple[str, Any, int]]:
        """Take the scheduled ``(kind, target, count)`` events due at
        ``phase`` of ``iteration``, in schedule order; each fires once,
        even when a rolled-back iteration is retried."""
        taken = [item for item in self._schedule
                 if item[0] == iteration and DUE_PHASE[item[1]] == phase]
        self._schedule = [item for item in self._schedule
                          if item not in taken]
        return [item[1:] for item in taken]

    def request_join(self, count: int = 1) -> list[int]:
        """Admit ``count`` fresh nodes at a commit-barrier boundary
        (:meth:`schedule` from inside a run); state transfer is pumped
        over the following barriers.  Returns the new node ids."""
        engine = self.engine
        _check_join(engine, count)
        joined: list[int] = []
        for _ in range(count):
            nid = engine.cluster.join_node()
            lg = LocalGraph(nid)
            engine.local_graphs[nid] = lg
            engine.cluster.node(nid).local = lg
            joined.append(nid)
            _, moves = self._plan()
            self._queue.append(MembershipOp("join", nid, moves))
            engine.metrics.inc("membership.joins_requested")
            engine.tracer.instant("membership.join", cat="membership",
                                  node=nid, planned_moves=len(moves))
        return joined

    def request_drain(self, node: int) -> None:
        """Begin draining ``node``: its masters move off over the next
        barriers, then its replicas are re-homed and it retires."""
        engine = self.engine
        check_supported(engine)
        if node not in engine.local_graphs:
            raise ConfigError(f"node {node} hosts no local graph")
        for op in self._queue:
            if op.node == node:
                raise ConfigError(
                    f"node {node} already has a pending membership op")
        engine.cluster.begin_drain(node)
        _, moves = self._plan()
        self._queue.append(MembershipOp("drain", node, moves))
        engine.metrics.inc("membership.drains_requested")
        engine.tracer.instant("membership.drain", cat="membership",
                              node=node, planned_moves=len(moves))

    def flap(self, node: int) -> None:
        """Transient stall: the node misses heartbeats but returns
        below the death budget, so it is never declared failed.

        The stall is charged to the node's clock and recorded on the
        detector; the flap feeds the adaptive floor policy;
        re-integration is a *delta sync* at the next commit barrier (no
        rebirth, no recovery protocol).
        """
        engine = self.engine
        detector = engine.cluster.detector
        beats = detector.record_flap(node)
        engine.cluster.clocks.advance(node, beats * detector.interval_s)
        self._flapped.append(node)
        if self.policy is not None:
            self.policy.on_flap(engine.iteration)
        engine.metrics.inc("membership.flaps")
        engine.metrics.set_gauge(f"ft.suspicion.node.{node}",
                                 detector.suspicion_level(node))
        engine.tracer.instant("membership.flap", cat="membership",
                              node=node, stalled_beats=beats)

    # -- the two barrier hooks ------------------------------------------

    def superstep_start(self) -> None:
        """Fire the flaps scheduled for this superstep."""
        if self._schedule:
            self.fire(self.due(self.engine.iteration, "superstep_start"))

    def post_commit(self) -> None:
        """Post-commit membership work, in dependency order: scheduled
        joins/drains fire, flapped nodes delta-resync, the transfer
        pump advances, then the adaptive-floor policy runs its
        throttled repair against the settled layout."""
        if self._schedule:
            self.fire(self.due(self.engine.iteration, "post_commit"))
        if self._flapped:
            self._flap_resync()
        if self._queue:
            with self.engine.tracer.span("membership.pump",
                                         cat="membership",
                                         iteration=self.engine.iteration):
                self.pump()
        if self.policy is not None:
            self._policy_pump()

    def fire(self, events) -> None:
        """Run ``(kind, target, count)`` events from :meth:`due`; a
        drain or flap whose target is no longer alive is skipped."""
        cluster = self.engine.cluster
        for kind, target, count in events:
            if kind == "join":
                self.request_join(count)
            elif cluster.node(target).is_alive:
                if kind == "flap":
                    self.flap(target)
                else:
                    self.request_drain(target)

    def _flap_resync(self) -> None:
        """Delta re-integration of flapped nodes (DESIGN.md §14).

        Runs at the commit barrier after the flap, when inboxes are
        empty: every master elsewhere whose value committed this
        superstep re-pushes it to the copies the flapped node hosts.
        The sync also travelled the normal path — the flap never lost
        it — so the rewrite is value-neutral and results stay
        bit-identical to a flap-free run; only traffic and simulated
        time move.  Active *flags* are deliberately left alone: a
        replica holds the flag its master last broadcast, which the
        master may have elided, and overwriting it would diverge from
        the flap-free run.
        """
        engine = self.engine
        flapped = sorted({n for n in self._flapped
                          if engine.cluster.node(n).is_alive})
        self._flapped = []
        if not flapped:
            return
        net = engine.cluster.network
        net.begin_step()
        alive = engine._alive()
        flap_set = set(flapped)
        records = 0
        for node in alive:
            if node in flap_set:
                continue
            lg = engine.local_graphs[node]
            outbox: dict = {}
            for slot in lg.iter_masters():
                if slot.last_update_iter < engine.committed_iteration:
                    continue
                for target in flap_set:
                    if target not in slot.meta.replica_positions:
                        continue
                    key = (target, MessageKind.RECOVERY)
                    batch = outbox.get(key)
                    if batch is None:
                        batch = outbox[key] = SyncBatch(full_state=True)
                    batch.append(slot.gid,
                                 slot.meta.replica_positions[target],
                                 slot.value,
                                 engine.program.value_nbytes(slot.value),
                                 slot.last_activates,
                                 slot.mirror_self_active)
                    records += 1
            engine._flush_batches(node, outbox)
        for target in flapped:
            lg = engine.local_graphs[target]
            # Value-neutral but for selfish masters, whose normal sync
            # is skipped: a column write, so the image stays.
            for msg in net.deliver(target):
                batch = msg.payload
                for i, gid in enumerate(batch.gids):
                    slot = lg.slot_of(gid)
                    slot.value = batch.values[i]
                    slot.last_activates = batch.activates(i)
                    if slot.is_mirror:
                        slot.mirror_self_active = batch.self_active(i)
        engine._last_barrier_clock = self._comm_barrier(alive)
        engine.metrics.inc("membership.flap_resync_records", records)
        engine.tracer.instant("membership.flap_resync", cat="membership",
                              nodes=flapped, records=records)

    def _policy_pump(self) -> None:
        """Adaptive-floor control loop, once per commit barrier.

        Ticks the policy's quiet clock, scans for masters below the
        target floor, repairs up to the policy's throttled allowance
        and reports progress back (which drives the backoff ladder and
        circuit breaker).
        """
        engine = self.engine
        policy = self.policy
        policy.on_barrier(engine.iteration)
        alive = engine._alive()
        if not alive:
            return
        target = policy.floor_target
        deficit, _ = common.masters_below(engine, alive, target)
        if deficit:
            allowance = policy.repair_allowance()
            if allowance > 0:
                self._policy_repair(deficit[:allowance], target, alive)
        # Re-derive the achieved floor from what masters actually have.
        policy.floor_achieved = common.min_ft_level(engine, target)
        ladder.update_ft_gauges(engine)

    def _policy_repair(self, batch: list[int], target: int,
                       alive: list[int]) -> None:
        """One throttled background-repair round toward ``target``."""
        engine = self.engine
        net = engine.cluster.network
        net.begin_step()
        created, bytes_sent = common.restore_ft_level(
            engine, batch, "adaptive-repair", k=target)
        still = sum(1 for gid in batch if engine.local_graphs[
            engine.master_node_of[gid]].slot_of(gid).meta.ft_level < target)
        self.policy.repair_result(len(batch), len(batch) - still)
        if created:
            repair_s = common.repair_transfer_s(engine, created, len(alive))
            engine._last_barrier_clock = self._comm_barrier(alive, repair_s)
        engine.metrics.inc("ft.policy.repair_rounds")
        engine.metrics.inc("ft.policy.repair_replicas", created)
        engine.metrics.inc("ft.policy.repair_bytes", bytes_sent)
        engine.tracer.instant("ft.policy.repair", cat="recovery",
                              batch=len(batch), created=created,
                              unrepaired=still, target=target)

    # -- join/drain planning and transfer --------------------------------------------------------

    def _eligible_nodes(self) -> list[int]:
        engine = self.engine
        return [n for n in engine._alive()
                if engine.cluster.placement_eligible(n)
                and n in engine.local_graphs]

    def _plan(self) -> tuple[list[int], list[tuple[int, int]]]:
        """Incremental Fennel restream over the current eligible set.

        Seeded off the membership epoch so each plan is deterministic
        yet distinct, on every backend.
        """
        engine = self.engine
        seed = engine.seed + 7919 * engine.cluster.membership_epoch
        return fennel_rebalance(engine.graph, engine.master_node_of,
                                self._eligible_nodes(), seed=seed)

    def _move_budget(self) -> int:
        """Masters movable this barrier: a fraction of one node's share."""
        engine = self.engine
        workers = max(1, len(self._eligible_nodes()))
        share = engine.graph.num_vertices / workers
        return max(1, int(self.MAX_MOVE_FRACTION * share))

    # -- the per-barrier pump -------------------------------------------

    def pump(self) -> None:
        """Advance in-flight membership ops at a commit barrier."""
        engine = self.engine
        self._drop_dead_targets()
        if not self._queue:
            return
        net = engine.cluster.network
        net.begin_step()
        pre_clock = engine.cluster.clocks.global_max()
        budget = self._move_budget()
        moved: list[int] = []
        bytes_sent = 0
        finalized = 0
        while self._queue and budget > 0:
            op = self._queue[0]
            while op.pending and budget > 0:
                gid, dst = op.pending.pop(0)
                cur = int(engine.master_node_of[gid])
                if cur == dst:
                    continue
                if op.kind == "drain" and cur != op.node:
                    # Recovery already moved it off the draining node.
                    continue
                if not engine.cluster.placement_eligible(dst) \
                        or dst not in engine.local_graphs:
                    dst = self._fallback_target(cur)
                    if dst is None or dst == cur:
                        continue
                bytes_sent += move_master(engine, gid, dst)
                op.moves_done += 1
                moved.append(gid)
                budget -= 1
            if op.pending:
                break  # budget exhausted mid-op
            if not self._finalize(op):
                continue  # drain found leftovers; op replanned
            finalized += 1
            self._queue.pop(0)
        if moved:
            # Moved masters may have lost a mirror seat along the way
            # (and new replicas want registering): top back up to the
            # effective floor right away.
            _, rbytes = common.restore_ft_level(
                engine, sorted(set(moved)), "membership-move")
            bytes_sent += rbytes
        if moved or finalized:
            self._charge(net, len(moved))
            # A drain's prune drops no image for the metadata it writes:
            # this site does (narrowing it to the prune's holders would
            # change ``soa.state_builds``); moves drop their own too.
            for lg in engine.local_graphs.values():
                lg.invalidate_soa()
            post = engine.cluster.clocks.global_max()
            self.transfer_sim_s += post - pre_clock
            engine._last_barrier_clock = post
        self.moves_total += len(moved)
        self.bytes_total += bytes_sent
        engine.metrics.inc("membership.moves", len(moved))
        engine.metrics.inc("membership.bytes", bytes_sent)
        engine.metrics.set_gauge("membership.epoch",
                                 engine.cluster.membership_epoch)
        engine.metrics.set_gauge("membership.pending_ops",
                                 len(self._queue))

    def _drop_dead_targets(self) -> None:
        engine = self.engine
        keep: list[MembershipOp] = []
        for op in self._queue:
            if engine.cluster.node(op.node).is_alive:
                keep.append(op)
                continue
            engine.cluster.abort_transition(op.node)
            engine.metrics.inc("membership.aborted")
            engine.tracer.instant("membership.aborted", cat="membership",
                                  node=op.node, kind=op.kind)
        self._queue = keep

    def _fallback_target(self, exclude: int) -> int | None:
        """Least-loaded eligible node when a planned target went away."""
        pool = [n for n in self._eligible_nodes() if n != exclude]
        if not pool:
            return None
        return min(pool, key=lambda n: (
            len(self.engine.local_graphs[n].slots), n))

    def _finalize(self, op: MembershipOp) -> bool:
        """Complete an op whose planned moves all ran.

        Returns False when a drain discovered leftover masters (a
        recovery promoted a mirror onto the draining node mid-drain);
        the op is replanned and stays queued.
        """
        engine = self.engine
        if op.kind == "drain":
            lg = engine.local_graphs[op.node]
            leftovers = sorted(s.gid for s in lg.iter_masters())
            if leftovers:
                for gid in leftovers:
                    dst = self._fallback_target(op.node)
                    if dst is None:
                        raise ConfigError(
                            f"no eligible node left to absorb node "
                            f"{op.node}'s masters")
                    op.pending.append((gid, dst))
                return False
            affected = prune_node_copies(engine, op.node)
            if affected:
                common.restore_ft_level(engine, affected, "drain-rehome")
            del engine.local_graphs[op.node]
            engine.cluster.retire_node(op.node)
            engine.metrics.inc("membership.drains_completed")
        else:
            engine.cluster.finish_join(op.node)
            engine.metrics.inc("membership.joins_completed")
        self.completed.append(op)
        engine.tracer.instant("membership.completed", cat="membership",
                              node=op.node, kind=op.kind,
                              moves=op.moves_done)
        return True

    def _charge(self, net, moved: int) -> None:
        """Charge transfer time: comm + reconstruction + one round."""
        engine = self.engine
        alive = engine._alive()
        for node in alive:
            net.deliver(node)
        self._comm_barrier(
            alive, common.repair_transfer_s(engine, moved, len(alive)))

    def _comm_barrier(self, alive: list[int],
                      extra_s: float | None = None) -> float:
        """Advance each alive clock by its comm time for the network's
        step counters, then by ``extra_s`` if given, and barrier them;
        returns the post-barrier clock."""
        engine = self.engine
        clocks = engine.cluster.clocks
        net = engine.cluster.network
        for node in alive:
            clocks.advance(node, pairwise_comm_time(
                engine.model, net.step_bytes, net.step_msgs, node))
            if extra_s is not None:
                clocks.advance(node, extra_s)
        return clocks.barrier(engine.model, alive)


    # -- the run's report -----------------------------------------------

    def report(self) -> dict[str, Any]:
        """The run's membership report: ``RunResult.membership`` and
        ``extra["membership"]`` on both backends (the multiprocessing
        backend adds only ``reshapes``).

        Presence rule: a run reports when a join or drain was requested
        (the membership epoch moved), a flap was recorded on the failure
        detector, or an adaptive floor band is configured; a static run
        reports ``{}``.
        """
        engine = self.engine
        epoch, policy = engine.cluster.membership_epoch, self.policy
        flaps = engine.cluster.detector.flaps
        if not (epoch or flaps or policy):
            return {}
        done = [op.kind for op in self.completed]
        return {
            "epoch": epoch,
            "moves": self.moves_total,
            "bytes": self.bytes_total,
            "transfer_sim_s": self.transfer_sim_s,
            "joins": done.count("join"),
            "drains": done.count("drain"),
            "flaps": flaps,
            "leader": engine.recovery_leader,
            "leader_term": engine.leader_term,
            "floor_events": list(policy.events) if policy else [],
        }

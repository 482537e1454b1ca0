"""Elastic membership: joins and drains pumped at commit barriers.

The :class:`MembershipManager` owns the lifecycle of every membership
change (DESIGN.md §14):

* a **join** admits a fresh node, plans an incremental Fennel
  rebalance pulling a balanced share of masters onto it, and marks the
  node read-eligible once the transfer completes;
* a **drain** plans the reverse — every master moves off — then prunes
  the node's remaining replica copies, re-homes the lost mirrors and
  retires the node.

State transfer is *throttled*: each commit barrier moves at most
``max_move_fraction`` of one node's share of the masters, so a
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
from typing import TYPE_CHECKING

from repro.config import FTMode
from repro.costmodel import pairwise_comm_time
from repro.engine.local_graph import LocalGraph
from repro.errors import ConfigError
from repro.ft import _recovery_common as common
from repro.membership.rebalance import move_master, prune_node_copies
from repro.partition.fennel import fennel_rebalance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


@dataclass
class MembershipOp:
    """One in-flight membership change."""

    kind: str  # "join" | "drain"
    node: int
    #: Masters still to move: (gid, destination node).
    pending: list[tuple[int, int]] = field(default_factory=list)
    requested_iteration: int = -1
    #: Filled when the op completes.
    completed_iteration: int = -1
    moves_done: int = 0

    def describe(self) -> str:
        return (f"{self.kind}(node={self.node}, "
                f"pending={len(self.pending)})")


class MembershipManager:
    """Per-engine queue and pump for elastic membership operations."""

    def __init__(self, engine: "Engine", max_move_fraction: float = 0.25):
        if not 0.0 < max_move_fraction <= 1.0:
            raise ConfigError(
                f"max_move_fraction must be in (0, 1], got "
                f"{max_move_fraction}")
        check_supported(engine)
        self.engine = engine
        self.max_move_fraction = max_move_fraction
        self._queue: list[MembershipOp] = []
        self.completed: list[MembershipOp] = []
        # Lifetime accounting (the elastic benchmark reads these).
        self.moves_total = 0
        self.bytes_total = 0
        self.transfer_sim_s = 0.0

    @property
    def active(self) -> bool:
        return bool(self._queue)

    # -- requests --------------------------------------------------------

    def request_join(self, count: int = 1) -> list[int]:
        """Admit ``count`` fresh nodes; state transfer is pumped over
        the following commit barriers.  Returns the new node ids."""
        engine = self.engine
        joined: list[int] = []
        for _ in range(max(1, count)):
            nid = engine.cluster.join_node()
            lg = LocalGraph(nid)
            engine.local_graphs[nid] = lg
            engine.cluster.node(nid).local = lg
            joined.append(nid)
            _, moves = self._plan()
            self._queue.append(MembershipOp(
                kind="join", node=nid, pending=moves,
                requested_iteration=engine.iteration))
            engine.metrics.inc("membership.joins_requested")
            engine.tracer.instant("membership.join", cat="membership",
                                  node=nid, planned_moves=len(moves))
        return joined

    def request_drain(self, node: int) -> None:
        """Begin draining ``node``: its masters move off over the next
        barriers, then its replicas are re-homed and it retires."""
        engine = self.engine
        if node not in engine.local_graphs:
            raise ConfigError(f"node {node} hosts no local graph")
        for op in self._queue:
            if op.node == node:
                raise ConfigError(
                    f"node {node} already has a pending membership op")
        engine.cluster.begin_drain(node)
        _, moves = self._plan()
        self._queue.append(MembershipOp(
            kind="drain", node=node, pending=moves,
            requested_iteration=engine.iteration))
        engine.metrics.inc("membership.drains_requested")
        engine.tracer.instant("membership.drain", cat="membership",
                              node=node, planned_moves=len(moves))

    # -- planning --------------------------------------------------------

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
        return max(1, int(self.max_move_fraction * share))

    # -- the per-barrier pump -------------------------------------------

    def pump(self) -> None:
        """Advance in-flight membership ops at a commit barrier."""
        engine = self.engine
        self._drop_dead_targets()
        if not self._queue:
            return
        if engine._vec is not None:
            # Write deferred column commits back: moves read the slots.
            engine._vec.rollback()
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
                cur = engine.master_node_of[gid]
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
            # A move's write set is wide (source, destination, every
            # copy's view of the master, new replicas' masters): this one
            # caller invalidates every image, not each write site its own.
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
        op.completed_iteration = engine.iteration
        self.completed.append(op)
        engine.tracer.instant("membership.completed", cat="membership",
                              node=op.node, kind=op.kind,
                              moves=op.moves_done)
        return True

    def _charge(self, net, moved: int) -> None:
        """Charge transfer time: comm + reconstruction + one round."""
        engine = self.engine
        model = engine.model
        alive = engine._alive()
        for node in alive:
            net.deliver(node)
        transfer_s = common.repair_transfer_s(engine, moved, len(alive))
        for node in alive:
            engine.cluster.clocks.advance(node, pairwise_comm_time(
                model, net.step_bytes, net.step_msgs, node))
            engine.cluster.clocks.advance(node, transfer_s)
        engine.cluster.clocks.barrier(model, alive)


def check_supported(engine: "Engine") -> None:
    """Validate that the job shape supports elastic membership."""
    job = engine.job
    if not engine.is_edge_cut:
        raise ConfigError(
            "elastic membership requires an edge-cut partitioning "
            "(vertex-cut partial gathers cannot follow a moving master)")
    if job.ft.mode is not FTMode.REPLICATION:
        raise ConfigError(
            "elastic membership requires REPLICATION fault tolerance "
            "(moves piggyback on the replica machinery)")
    if job.ft.safety_checkpoint_interval:
        raise ConfigError(
            "elastic membership is incompatible with safety "
            "checkpoints: snapshot recovery rebuilds the loading-time "
            "layout and would resurrect retired nodes")

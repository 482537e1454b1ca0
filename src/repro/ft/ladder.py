"""The recovery coordinator (Section 5; DESIGN.md §9).

:func:`recover` is the one entry into recovery: ``Engine.run`` calls it
at both of its detection points and the multiprocessing backend calls
it on its parent image.  It elects a leader, charges detection, runs
the fallback **ladder** — again whenever a crash lands mid-protocol
(Section 5.3.2) — then repairs the replication level and publishes the
degraded-mode surface.  All state lives on the engine it is handed.

The ladder is a loop over the three recovery classes (Rebirth,
Migration, checkpoint), each a ``recover(failed) -> RecoveryStats``
that names its ``rung`` and opens by checking its own precondition,
raising before it has touched anything.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from repro.config import FTMode, RecoveryStrategy
from repro.errors import NoStandbyNodeError, UnrecoverableFailureError
from repro.ft import _recovery_common as common
from repro.ft.checkpoint import CheckpointRecovery
from repro.ft.migration import MigrationRecovery
from repro.ft.rebirth import RebirthRecovery
from repro.ft.recovery import RecoveryStats
from repro.membership.election import elect_leader

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


def recover(engine: "Engine", failed: tuple[int, ...]) -> None:
    """Recover from the crash of ``failed`` and leave the engine ready
    to (re)run superstep ``engine.iteration``."""
    # The explicit degraded window: reads served between here and
    # the end of recovery fall back to surviving replicas and are
    # tagged ``degraded=True`` by the router (DESIGN.md §13).
    engine.in_recovery = True
    # Recovery reads survivor slots throughout: flush the vectorized
    # executor's deferred commits up front.  Its cached images stay —
    # each rung, and repair, invalidates exactly the nodes it writes
    # (DESIGN.md §11).
    if engine._vec is not None:
        engine._vec.rollback()
    cluster = engine.cluster
    # Elect the coordinator for this recovery term before the
    # chaos hook, so a schedule targeting "leader" can kill it
    # mid-recovery (DESIGN.md §14).
    _elect_leader(engine)
    # A crash while recovery is in progress is detected before the
    # protocol commits and handled as one larger simultaneous
    # failure (Section 5.3.2: failures during recovery restart
    # recovery).
    engine._chaos_point("recovery")
    extra = cluster.detector.newly_failed()
    if extra:
        failed = tuple(sorted(set(failed) | set(extra)))
        if not _leader_alive(engine):
            _elect_leader(engine)
    if engine.membership.policy is not None:
        engine.membership.policy.on_failure(engine.iteration, len(failed))
    detection = cluster.detector.detection_delay_s
    alive = engine._alive()
    for node in alive:
        cluster.clocks.advance(node, detection)
    cluster.clocks.barrier(engine.model, alive)
    engine.tracer.record("recovery.detection", detection,
                         cat="recovery", failed_nodes=list(failed))

    if engine.job.ft.mode is FTMode.NONE:
        raise UnrecoverableFailureError(
            f"nodes {list(failed)} crashed and fault tolerance is "
            f"disabled (BASE configuration)",
            surviving_nodes=tuple(alive))
    # A crash landing *mid-protocol* must not be deferred to the
    # next barrier: re-poll the detector after each protocol pass
    # and restart recovery for the enlarged failure set
    # (Section 5.3.2).  The loop terminates because the detector is
    # edge-triggered — each restart needs a *fresh* crash, and only
    # finitely many machines can crash between two barriers.
    while True:
        _recover_once(engine, failed, detection)
        detection = 0.0  # charged once, to the first pass
        engine._chaos_point("recovery_protocol")
        extra = cluster.detector.newly_failed()
        if not extra:
            break
        # Each ladder pass commits atomically, so nodes already
        # recovered are healthy again; the restarted protocol must
        # target only the nodes that are *still* down (a recovery
        # pass aimed at a live node would wrongly evict its state).
        failed = tuple(sorted(
            set(extra) | {n for n in failed
                          if cluster.node(n).is_crashed}))
        # A dead leader cannot coordinate the restarted protocol:
        # re-elect under a fresh term before the next ladder pass.
        if not _leader_alive(engine):
            _elect_leader(engine)
        engine.metrics.inc("recovery.restarts")
        engine.tracer.instant("recovery.restart", cat="recovery",
                              failed_nodes=list(failed))
    # Post-recovery FT repair and degraded-mode assessment run
    # before the ``post_recovery`` hook, so chaos invariants observe
    # the repaired replication level (DESIGN.md §9).
    _repair_ft_level(engine)
    update_ft_gauges(engine)
    _refresh_broadcast_state(engine)
    if engine._vec is not None:
        # Here, not inside the next compute span: recovery's cost.
        with engine.tracer.span("recovery.rebuild", cat="recovery") as sp:
            sp.annotate(nodes=engine._vec.rebuild_stale())
    post = cluster.clocks.barrier(engine.model, engine._alive())
    engine._last_barrier_clock = post
    # Whatever rung recovered — in-memory replicas (state of the
    # last commit before ``engine.iteration``) or a checkpoint rewind
    # (which lowered ``engine.iteration`` to the resume point) — the
    # restored state is the commit of the superstep before the one
    # about to (re)run.
    engine.committed_iteration = engine.iteration - 1
    engine.in_recovery = False
    engine._chaos_point("post_recovery")


def _elect_leader(engine: "Engine") -> None:
    """Elect the coordinator for this recovery term (DESIGN.md §14).

    Deterministic and seeded, so every backend elects the same
    node from the same live set without exchanging votes; one
    coordination round is charged to every participant.  The leader
    is pure coordination — recovery's data flow stays decentralised
    per the paper — but restart ordering is leader-first, and a
    chaos schedule can target ``"leader"`` to kill it mid-recovery
    (which simply forces a re-election with a bumped term).
    """
    alive = engine._alive()
    if not alive:
        return
    engine.leader_term += 1
    engine.recovery_leader = elect_leader(alive, engine.seed,
                                          engine.leader_term)
    for node in alive:
        engine.cluster.clocks.advance(node, engine.model.recovery_round_s)
    engine.metrics.set_gauge("ft.leader", engine.recovery_leader)
    engine.metrics.set_gauge("ft.leader_term", engine.leader_term)
    engine.tracer.instant("recovery.leader", cat="recovery",
                          leader=engine.recovery_leader,
                          term=engine.leader_term)


def _leader_alive(engine: "Engine") -> bool:
    node = engine.cluster.nodes.get(engine.recovery_leader)
    return node is not None and node.is_alive


def _recover_once(engine: "Engine", failed: tuple[int, ...],
                  detection: float) -> None:
    """Run one pass of the fallback ladder and commit its result."""
    at_iteration = engine.iteration
    with engine.tracer.span("recovery.protocol", cat="recovery",
                            failed_nodes=list(failed)) as sp:
        stats, rung = _run_ladder(engine, failed)
        # Protocol phase times are cost-model aggregates, not lived
        # through the clock; clocks advance below, after the span.
        sp.set_sim(stats.total_s)
        sp.annotate(strategy=stats.strategy, rung=rung,
                    vertices=stats.vertices_recovered,
                    recovery_bytes=stats.recovery_bytes)
    stats.detection_s = detection
    stats.at_iteration = at_iteration
    engine.recoveries.append(stats)
    metrics = engine.metrics
    metrics.inc("recovery.count")
    metrics.inc(f"recovery.by_strategy.{stats.strategy}")
    metrics.inc("recovery.failed_nodes", len(failed))
    metrics.inc("recovery.sim_s", stats.total_s)
    metrics.inc("recovery.bytes", stats.recovery_bytes)
    first_choice = ("checkpoint"
                    if engine.job.ft.mode is FTMode.CHECKPOINT
                    else engine.job.ft.recovery.value)
    if rung != first_choice:
        metrics.inc(f"recovery.fallback.by_rung.{rung}")
        engine.tracer.instant("recovery.fallback", cat="recovery",
                              rung=rung, first_choice=first_choice)
    # Recovery time advances every participant's clock.
    for node in engine._alive():
        engine.cluster.clocks.advance(node, stats.total_s)


def _run_ladder(engine: "Engine", failed: tuple[int, ...]
                ) -> tuple[RecoveryStats, str]:
    """Try the recovery rungs in order; return (stats, rung used).

    REPLICATION-mode ladder (DESIGN.md §9):

    1. the configured strategy — Rebirth only when enough *live*
       standbys exist (else it raises :class:`NoStandbyNodeError`
       before consuming any);
    2. Migration across the survivors when standbys are exhausted;
    3. the opt-in safety-net checkpoint when replication itself is
       exhausted (some vertex lost every copy) or the in-memory
       rungs failed.

    Only when every applicable rung fails does
    :class:`UnrecoverableFailureError` propagate, carrying the
    rungs attempted, the lost-vertex count and the survivors.
    """
    ft = engine.job.ft
    if ft.mode is FTMode.CHECKPOINT:
        return CheckpointRecovery(engine).recover(failed), "checkpoint"
    failed_set = set(failed)
    survivors = [n for n in engine._alive() if n not in failed_set]
    rungs: list = []
    attempted: list[str] = []
    # In-memory rungs need every dead master to have kept a mirror;
    # checked *before* any of them mutates cluster state.
    lost = common.find_lost_vertices(engine, failed_set)
    if lost:
        attempted.append("replication:exhausted")
    else:
        if ft.recovery is RecoveryStrategy.REBIRTH:
            rungs.append(RebirthRecovery(engine))
        rungs.append(MigrationRecovery(engine))
    if engine._safety_ckpt:
        rungs.append(CheckpointRecovery(engine))
    first_error: UnrecoverableFailureError | None = None
    for recovery in rungs:
        attempted.append(recovery.rung)
        try:
            return recovery.recover(failed), recovery.rung
        except NoStandbyNodeError:
            attempted[-1] += ":standby-exhausted"
        except UnrecoverableFailureError as err:
            first_error = first_error or err
    lost_count = len(lost) or (first_error.lost_vertices
                               if first_error else 0)
    raise UnrecoverableFailureError(
        f"no recovery rung could handle the failure of nodes "
        f"{sorted(failed_set)} (attempted: "
        f"{', '.join(attempted) or 'none'}; {lost_count} vertices "
        f"lost every copy)",
        lost_vertices=lost_count,
        rungs_attempted=tuple(attempted),
        surviving_nodes=tuple(survivors))


def _repair_ft_level(engine: "Engine") -> None:
    """Post-recovery FT repair (DESIGN.md §9).

    After any successful recovery — whatever the rung — scan the
    survivors' masters for vertices whose replication level dropped
    below K+1 and re-create FT replicas/mirrors with the loading-
    time placement heuristics (Section 4.1), so a second failure a
    few supersteps later finds full coverage again.  Charged to the
    cost model and traced as ``recovery.repair``; what repair
    *cannot* restore (too few survivors) becomes explicit degraded
    state instead of silent under-protection.
    """
    k = engine.membership.effective_floor
    if engine.job.ft.mode is not FTMode.REPLICATION or k <= 0:
        return
    alive = engine._alive()
    with engine.tracer.span("recovery.repair", cat="recovery") as sp:
        deficit, widest_scan = common.masters_below(engine, alive, k)
        created, bytes_sent = common.restore_ft_level(
            engine, deficit, "recovery-repair", k=k)
        # Cost: parallel per-node master scan, plus replica state
        # transfer and one coordination round when work was done.
        repair_s = (widest_scan * engine.model.per_vertex_scan_s
                    * engine.model.data_scale)
        if created:
            repair_s += common.repair_transfer_s(engine, created,
                                                 len(alive))
        sp.set_sim(repair_s)
        sp.annotate(vertices=len(deficit), replicas_created=created,
                    repair_bytes=bytes_sent)
        for node in alive:
            engine.cluster.clocks.advance(node, repair_s)
    if engine.recoveries:
        stats = engine.recoveries[-1]
        stats.repair_s += repair_s
        stats.repaired_vertices += len(deficit)
        stats.repair_replicas_created += created
        stats.repair_bytes += bytes_sent
    engine.metrics.inc("recovery.repair.sim_s", repair_s)
    engine.metrics.inc("recovery.repair.replicas", created)
    engine.metrics.inc("recovery.repair.bytes", bytes_sent)


def update_ft_gauges(engine: "Engine") -> None:
    """Publish the degraded-mode surface (DESIGN.md §9).

    With an adaptive policy the yardstick is the *enforced* floor
    (``min(target, achieved)``) — degradation is measured against
    what the control plane currently promises, not the static K.
    The two gauges are also what ``RunResult.ft_level_current`` and
    ``ft_degraded`` report.
    """
    metrics = engine.metrics
    policy = engine.membership.policy
    if policy is not None:
        metrics.set_gauge("ft.policy.floor_target", policy.floor_target)
        metrics.set_gauge("ft.policy.floor_enforced",
                          policy.floor_enforced)
        metrics.set_gauge("ft.policy.breaker_open", policy.breaker_open)
    # Outside REPLICATION mode the floor is 0: level 0, never degraded —
    # published all the same, so that a metrics snapshot taken after an
    # FT-mode/level transition never carries what was published last.
    k = (engine.membership.enforced_floor
         if engine.job.ft.mode is FTMode.REPLICATION else 0)
    level = common.min_ft_level(engine, k) if k > 0 else 0
    metrics.set_gauge("ft.level_current", level)
    metrics.set_gauge("ft.degraded", level < k)
    if level < k:
        engine.tracer.instant("ft.degraded", cat="recovery",
                              level=level, configured=k)


def _refresh_broadcast_state(engine: "Engine") -> None:
    """Re-derive the vertex-cut activity-broadcast queue.

    Recovery may leave masters whose replicas hold stale activity
    flags; a single post-recovery scan re-queues them (rare path).
    """
    if engine.is_edge_cut:
        return
    engine._broadcast_pending = defaultdict(set)
    for node in engine._alive():
        lg = engine.local_graphs[node]
        for slot in lg.iter_masters():
            if slot.active != slot.replicas_known_active:
                engine._broadcast_pending[node].add(slot.gid)

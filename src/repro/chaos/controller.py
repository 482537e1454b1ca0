"""Chaos controller: fires a :class:`FailureSchedule` against an engine.

The controller is an engine chaos plugin (see
:meth:`repro.engine.engine.Engine.attach_chaos`).  At every phase hook
it fires the schedule's due crash events — resolving target predicates
against *live* cluster state — and, when the schedule carries message
faults, it installs itself as the network's fault injector.

Semantics
---------
* Events fire **once**, even when a rolled-back iteration is retried.
* Within an iteration, hooks arrive in :data:`PHASE_ORDER`; an event
  fires at the first hook whose order is at or past its phase (so a
  ``gather`` event still fires at ``sync`` on a one-node cluster where
  the mid-compute hook is skipped).
* ``recovery`` events fire only while a recovery is actually in
  progress; if the iteration passes without one they expire.
* Message verdicts draw from a dedicated seeded stream, one draw per
  candidate fault, so the decision sequence is reproducible.
  ``duplicate`` is only ever applied to idempotent message kinds
  (last-writer-wins syncs, activations, control) — duplicating a
  partial-gather accumulator would double-count real data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.chaos.schedule import ChaosEvent, FailureSchedule
from repro.cluster.network import Message, MessageKind
from repro.errors import ConfigError
from repro.utils.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine

#: Intra-iteration order of the crash-capable phase hooks.
PHASE_ORDER = {"after_commit": 0, "superstep_start": 1, "gather": 2,
               "sync": 3, "barrier": 4}

#: Kinds safe to duplicate: applying them twice is a no-op.
IDEMPOTENT_KINDS = frozenset({MessageKind.SYNC, MessageKind.MIRROR_SYNC,
                              MessageKind.ACTIVATE, MessageKind.CONTROL})


class ChaosController:
    """Replays one failure schedule, deterministically."""

    def __init__(self, schedule: FailureSchedule):
        self.schedule = schedule
        self._fired: set[int] = set()
        self._expired: set[int] = set()
        self._msg_rng = SeededRng(schedule.seed, "chaos-messages")
        self._target_rng = SeededRng(schedule.seed, "chaos-targets")
        #: Human-readable record of every injected fault.
        self.log: list[str] = []

    # -- wiring ---------------------------------------------------------

    def attach(self, engine: "Engine") -> "ChaosController":
        """Register with the engine (and its network, if needed)."""
        engine.attach_chaos(self)
        if self.schedule.message_faults_enabled:
            network = engine.cluster.network
            network.fault_injector = self.message_verdict
            # Columnar batches get one verdict per *record*, drawn from
            # the same seeded stream, so batching never changes what a
            # given logical message experiences.
            network.record_fault_injector = self.record_verdict
        return self

    # -- engine phase hook ----------------------------------------------

    def on_phase(self, engine: "Engine", phase: str) -> None:
        if phase in ("post_commit", "post_recovery"):
            return
        iteration = engine.iteration
        in_recovery = phase in ("recovery", "recovery_protocol")
        for idx, event in enumerate(self.schedule.events):
            if idx in self._fired or idx in self._expired:
                continue
            if event.phase in ("recovery", "recovery_protocol"):
                if phase == event.phase and event.iteration == iteration:
                    self._fire(engine, idx, event)
                elif not in_recovery and event.iteration < iteration:
                    self._expired.add(idx)
                continue
            if in_recovery:
                continue
            if event.iteration < iteration:
                self._expired.add(idx)
                continue
            if (event.iteration == iteration
                    and PHASE_ORDER[event.phase] <= PHASE_ORDER[phase]):
                self._fire(engine, idx, event)

    # -- event firing ----------------------------------------------------

    def _fire(self, engine: "Engine", idx: int, event: ChaosEvent) -> None:
        self._fired.add(idx)
        if event.kind == "join":
            targets = engine.membership.request_join(event.count)
        else:
            targets = self.resolve_targets(engine, event)
            for node in targets:
                if event.kind == "crash":
                    engine.cluster.crash(node)
                elif event.kind == "flap":
                    engine.membership.flap(node)
                else:  # drain
                    try:
                        engine.membership.request_drain(node)
                    except ConfigError as err:
                        # A random schedule can ask for an impossible
                        # drain (target already transitioning, or the
                        # last eligible node); skip it, visibly.
                        self.log.append(
                            f"it={engine.iteration} {event.describe()} "
                            f"skipped: {err}")
                        return
        engine.tracer.instant(f"chaos.{event.kind}", cat="chaos",
                              iteration=engine.iteration,
                              phase=event.phase, targets=targets)
        engine.metrics.inc(f"chaos.{event.kind}_events")
        if event.kind == "crash":
            engine.metrics.inc("chaos.crashed_nodes", len(targets))
        self.log.append(
            f"it={engine.iteration} {event.describe()} -> {targets}")

    def resolve_targets(self, engine: "Engine",
                        event: ChaosEvent) -> list[int]:
        """Turn a target spec into concrete node ids, bounded so at
        least one worker survives the event."""
        if event.target == "standby":
            return engine.cluster.standby_nodes()[:event.count]
        if event.target == "leader":
            leader = engine.recovery_leader
            return [leader] if leader in engine._alive() else []
        candidates = engine._alive()
        if event.kind == "drain":
            # Only settled members can start draining, and at least one
            # other eligible node must remain to absorb the masters.
            candidates = [n for n in candidates
                          if engine.cluster.read_eligible(n)]
            if len(candidates) < 2:
                return []
        if isinstance(event.target, int):
            return [event.target] if event.target in candidates else []
        count = min(event.count, len(candidates) - 1)
        if count < 1:
            return []
        if event.target == "random":
            return sorted(self._target_rng.sample(candidates, count))
        key = self._load_key(engine, event.target)
        ranked = sorted(candidates, key=key)
        return sorted(ranked[:count])

    @staticmethod
    def _load_key(engine: "Engine", predicate: str):
        def masters(node: int) -> int:
            return sum(1 for _ in engine.local_graphs[node].iter_masters())

        def mirrors(node: int) -> int:
            return sum(1 for _ in engine.local_graphs[node].iter_mirrors())

        if predicate == "most-loaded":
            return lambda n: (-masters(n), n)
        if predicate == "least-loaded":
            return lambda n: (masters(n), n)
        if predicate == "mirror-heaviest":
            return lambda n: (-mirrors(n), n)
        raise AssertionError(f"unhandled predicate {predicate!r}")

    # -- network fault injector ------------------------------------------

    def message_verdict(self, msg: Message) -> str:
        """Per-message fault decision (deterministic stream)."""
        sched = self.schedule
        if (sched.duplicate_prob and msg.kind in IDEMPOTENT_KINDS
                and self._msg_rng.random() < sched.duplicate_prob):
            return "duplicate"
        if sched.delay_prob and self._msg_rng.random() < sched.delay_prob:
            return "delay"
        if sched.drop_prob and self._msg_rng.random() < sched.drop_prob:
            return "drop"
        return "deliver"

    def record_verdict(self, msg: Message, index: int) -> str:
        """Per-record fault decision for columnar batches.

        Same stream and draw order as :meth:`message_verdict` — record
        *index* of a batch consumes exactly the draws the equivalent
        scalar message would have, keeping verdicts record-level.
        """
        return self.message_verdict(msg)

    # -- reporting -------------------------------------------------------

    @property
    def fired_events(self) -> list[ChaosEvent]:
        return [self.schedule.events[i] for i in sorted(self._fired)]

    @property
    def expired_events(self) -> list[ChaosEvent]:
        return [self.schedule.events[i] for i in sorted(self._expired)]

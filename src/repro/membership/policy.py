"""Adaptive replication floor (DESIGN.md §14).

A static K is either wasteful (quiet clusters carry K+1 copies of
everything forever) or fragile (bursty failure periods exhaust the
budget).  :class:`FtPolicy` adapts the *effective* replication floor
inside the configured ``[ft_level_min, ft_level_max]`` band from the
failures and flaps the engine observes:

* every confirmed failure raises the target floor (more protection
  while the cluster is visibly unhealthy);
* a flap raises it at most one step above the baseline (instability is
  a warning, not a loss);
* after ``cooldown`` quiet iterations the target relaxes one step at a
  time back toward ``ft_level_min``.

Raising the target does not conjure replicas: the engine runs a
*throttled background repair* each commit barrier, restoring at most
``repair_batch`` vertices per barrier.  Repair rounds that make no
progress back off exponentially, and after ``breaker_threshold``
futile rounds a circuit breaker opens — repair pauses for
``breaker_quiet`` barriers, then probes with a small batch before
resuming (a cluster too small to host the target floor would otherwise
re-scan its deficit forever).

Two floors are published:

* ``floor_target`` — what the policy wants (rises immediately on
  events, relaxes after quiet);
* ``floor_enforced = min(target, achieved)`` — what invariants and
  gauges hold the cluster to; it rises only as repair actually
  completes and drops immediately when the target drops.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import FaultToleranceConfig
from repro.errors import ConfigError


@dataclass(frozen=True)
class FtPolicyConfig:
    """Tuning of the adaptive-floor control loop."""

    #: Quiet iterations (no failure, no flap) before the target floor
    #: relaxes one step.
    cooldown: int = 6
    #: Maximum deficit vertices repaired per commit barrier.
    repair_batch: int = 64
    #: Barriers skipped after the first repair round without full
    #: progress; doubles per consecutive such round.
    backoff_initial: int = 1
    backoff_max: int = 8
    #: Consecutive repair rounds with *zero* progress before the
    #: circuit breaker opens.
    breaker_threshold: int = 3
    #: Barriers the breaker stays open before a half-open probe.
    breaker_quiet: int = 4

    def __post_init__(self) -> None:
        if self.cooldown < 1:
            raise ConfigError("cooldown must be >= 1")
        if self.repair_batch < 1:
            raise ConfigError("repair_batch must be >= 1")
        if self.backoff_initial < 1 or self.backoff_max < self.backoff_initial:
            raise ConfigError(
                "need 1 <= backoff_initial <= backoff_max")
        if self.breaker_threshold < 1 or self.breaker_quiet < 1:
            raise ConfigError(
                "breaker_threshold and breaker_quiet must be >= 1")


class FtPolicy:
    """Adaptive replication-floor controller for one job."""

    def __init__(self, ft: FaultToleranceConfig,
                 config: FtPolicyConfig | None = None):
        self.floor_min = ft.floor_min
        self.floor_max = ft.floor_max
        #: The configured baseline K (quiet-state resting point is
        #: ``floor_min``, but flaps never push above ``base + 1``).
        self.base = ft.ft_level
        self.config = config or FtPolicyConfig()
        #: What the policy wants right now.
        self.floor_target = ft.ft_level
        #: Minimum replication level actually achieved across masters,
        #: capped at the target; updated by the engine's repair pump.
        self.floor_achieved = ft.ft_level
        self.breaker_open = False
        self._last_event_iter: int | None = None
        self._backoff = 0
        self._backoff_next = self.config.backoff_initial
        self._futile = 0
        self._open_elapsed = 0
        #: Event log for observability: (iteration, kind, new_target).
        self.events: list[tuple[int, str, int]] = []

    # -- floors ---------------------------------------------------------

    @property
    def floor_enforced(self) -> int:
        """The floor invariants hold the cluster to right now."""
        return min(self.floor_target, self.floor_achieved)

    # -- detector events ------------------------------------------------

    def on_failure(self, iteration: int, count: int = 1) -> None:
        """A confirmed failure burst: raise the target immediately."""
        self._last_event_iter = iteration
        self.floor_target = min(self.floor_max, self.floor_target + count)
        self.events.append((iteration, "failure", self.floor_target))

    def on_flap(self, iteration: int) -> None:
        """A flap: instability without loss — at most one step above
        the baseline, and never lowers an already-raised target."""
        self._last_event_iter = iteration
        self.floor_target = min(self.floor_max,
                                max(self.floor_target, self.base + 1))
        self.events.append((iteration, "flap", self.floor_target))

    def on_barrier(self, iteration: int) -> None:
        """Per-commit-barrier tick: relax the target after quiet."""
        if self._last_event_iter is None:
            return
        if (iteration - self._last_event_iter >= self.config.cooldown
                and self.floor_target > self.floor_min):
            self.floor_target -= 1
            # Restart the quiet clock so each relaxation step takes a
            # full cooldown window.
            self._last_event_iter = iteration
            self.events.append((iteration, "relax", self.floor_target))

    # -- repair throttling ----------------------------------------------

    def repair_allowance(self) -> int:
        """Deficit vertices the engine may repair at this barrier.

        Zero while backing off or while the breaker is open (the
        breaker half-opens with a quarter batch after its quiet
        window).
        """
        if self.breaker_open:
            self._open_elapsed += 1
            if self._open_elapsed >= self.config.breaker_quiet:
                self._open_elapsed = 0
                return max(1, self.config.repair_batch // 4)
            return 0
        if self._backoff > 0:
            self._backoff -= 1
            return 0
        return self.config.repair_batch

    def repair_result(self, requested: int, repaired: int) -> None:
        """Feed one repair round's outcome back into the throttle."""
        if requested <= 0:
            return
        if repaired >= requested:
            # Full progress: reset the backoff ladder, close the breaker.
            self._futile = 0
            self._backoff = 0
            self._backoff_next = self.config.backoff_initial
            self.breaker_open = False
            self._open_elapsed = 0
            return
        self._backoff = self._backoff_next
        self._backoff_next = min(self.config.backoff_max,
                                 self._backoff_next * 2)
        if repaired > 0:
            self._futile = 0
            return
        self._futile += 1
        if self._futile >= self.config.breaker_threshold:
            self.breaker_open = True
            self._open_elapsed = 0

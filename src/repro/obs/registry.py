"""One queryable home for the counters scattered across the system.

Before this module existed every subsystem grew its own ad-hoc ints:
``Network.dropped_msgs``, ``Network.chaos_*``, the engine's
``_step_stats`` tuple, per-recovery ``RecoveryStats`` fields.  The
:class:`MetricsRegistry` absorbs them behind one namespace-dotted
counter/gauge interface (``net.sent_bytes``, ``chaos.crashes``,
``engine.supersteps``, ...) and supports **per-superstep snapshots**:
the engine snapshots the registry inside every barrier commit, so the
full counter trajectory of a run can be replayed superstep by
superstep (the paper's per-phase traffic breakdowns, Figs. 8/14).

Counters are monotonic; gauges are last-write-wins.  Both are plain
dict entries — incrementing one is a hash lookup and an add, cheap
enough for per-message call sites.
"""

from __future__ import annotations

from typing import Any


class MetricsRegistry:
    """Flat counter/gauge store with labelled snapshots."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, Any] = {}
        #: Labelled copies of the counter/gauge state, in capture order.
        self.snapshots: list[dict[str, Any]] = []

    # -- counters -------------------------------------------------------

    def inc(self, name: str, delta: float = 1) -> None:
        """Add ``delta`` (>= 0) to a monotonic counter."""
        if delta < 0:
            raise ValueError(f"counter {name!r} cannot decrease "
                             f"(delta={delta})")
        self._counters[name] = self._counters.get(name, 0) + delta

    def value(self, name: str, default: float = 0) -> float:
        """Current value of a counter (``default`` if never touched)."""
        return self._counters.get(name, default)

    def counters(self, prefix: str = "") -> dict[str, float]:
        """Copy of the counter map, optionally filtered by prefix."""
        return {k: v for k, v in sorted(self._counters.items())
                if k.startswith(prefix)}

    # -- gauges ---------------------------------------------------------

    def set_gauge(self, name: str, value: Any) -> None:
        self._gauges[name] = value

    def gauge(self, name: str, default: Any = None) -> Any:
        return self._gauges.get(name, default)

    def gauges(self, prefix: str = "") -> dict[str, Any]:
        return {k: v for k, v in sorted(self._gauges.items())
                if k.startswith(prefix)}

    # -- snapshots ------------------------------------------------------

    def snapshot(self, **labels: Any) -> dict[str, Any]:
        """Capture the current state under the given labels."""
        snap = {"labels": dict(labels),
                "counters": dict(self._counters),
                "gauges": dict(self._gauges)}
        self.snapshots.append(snap)
        return snap

    @staticmethod
    def delta(earlier: dict[str, Any], later: dict[str, Any],
              name: str) -> float:
        """Counter increase between two snapshots."""
        return (later["counters"].get(name, 0)
                - earlier["counters"].get(name, 0))

    # -- composition ----------------------------------------------------

    def absorb(self, other: "MetricsRegistry") -> None:
        """Fold another registry's state into this one.

        Used when a component that created its own registry (the
        network exists before the engine) is re-bound to the job-wide
        one: counts accumulated so far must carry over.
        """
        for name, value in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in other._gauges.items():
            self._gauges.setdefault(name, value)

"""Heartbeat-based failure detection.

The paper's detector (Section 3.2) is deliberately simple: every node
heartbeats a central master at a conservative interval (500 ms) and the
master declares a node dead after several missed beats.  Because
recovery is always deferred to the next global barrier, the detector
does not need to be fast, only safe.

In the simulation the detector both *injects* crashes (from a
:class:`FailureSchedule`-like caller crashing nodes directly) and
*observes* them; its contribution to simulated time is the detection
delay ``interval * misses`` added once per failure event, matching the
~7 s detection span visible in the paper's case study (Fig. 12).

Flap tolerance (DESIGN.md §14): on top of the binary dead/alive
verdict the detector keeps a per-node *suspicion level* — consecutive
missed heartbeats over the miss budget.  A node that misses beats but
returns below the budget was *flapping*, not dead: its suspicion is
cleared, its flap counter advances, and the membership layer
re-integrates it with a delta sync instead of a full rebirth (and
reports the flap count).  Suspicion levels are surfaced by the engine
as ``ft.suspicion.node.N`` gauges.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable

from repro.cluster.node import Node


class FailureDetector:
    """Central-master heartbeat detector over simulated nodes.

    ``members`` (optional) restricts detection to nodes registered in
    the barrier group: an unclaimed standby that dies is a spare going
    bad, not a computation failure, and must not trigger recovery.
    """

    def __init__(self, nodes: dict[int, Node], interval_s: float = 0.5,
                 misses: int = 14,
                 members: Callable[[], Iterable[int]] | None = None):
        if interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        if misses < 1:
            raise ValueError("misses must be >= 1")
        self._nodes = nodes
        self.interval_s = interval_s
        self.misses = misses
        self._members = members
        self._known_failed: set[int] = set()
        #: node -> consecutive missed heartbeats (0 = healthy).
        self._missed: dict[int, int] = defaultdict(int)
        #: node -> completed flap episodes (missed beats, then returned).
        self._flaps: dict[int, int] = defaultdict(int)

    @property
    def detection_delay_s(self) -> float:
        """Simulated time between a crash and its safe declaration."""
        return self.interval_s * self.misses

    # -- suspicion / flap statistics ------------------------------------

    def record_flap(self, node_id: int, beats: int | None = None) -> int:
        """Record one flap episode: ``beats`` missed heartbeats followed
        by a return *below* the death budget.

        Suspicion rises to the missed-beat count and immediately clears
        (the node answered again); the flap counter advances.  Returns
        the number of beats charged, clamped so a flap can never cross
        the declared-dead threshold.
        """
        if beats is None:
            beats = max(1, self.misses // 2)
        beats = max(1, min(beats, self.misses - 1))
        self._missed[node_id] = 0  # returned: consecutive run broken
        self._flaps[node_id] += 1
        return beats

    def suspicion_level(self, node_id: int) -> float:
        """Current suspicion in ``[0, 1]``: consecutive missed beats
        over the miss budget (1.0 = declared dead)."""
        node = self._nodes.get(node_id)
        if node is not None and node.is_crashed:
            return 1.0
        return min(1.0, self._missed[node_id] / self.misses)

    @property
    def flaps(self) -> int:
        """Flap episodes recorded over the job, all nodes."""
        return sum(self._flaps.values())

    def poll(self) -> set[int]:
        """Return the set of members currently observed as crashed.

        Idempotent across recovery: a logical id that heartbeats again
        (its slot was re-used by a standby during Rebirth) is cleared
        from the known-failed record, so a *later* crash of the same id
        is reported as a fresh failure even if :meth:`forget` was never
        called.
        """
        failed: set[int] = set()
        for nid, node in self._nodes.items():
            if node.is_crashed:
                failed.add(nid)
                self._missed[nid] = self.misses
            elif node.is_alive:
                self._known_failed.discard(nid)
                self._missed[nid] = 0
        if self._members is not None:
            failed &= set(self._members())
        return failed

    def newly_failed(self) -> set[int]:
        """Crashes observed since the previous call (edge-triggered)."""
        failed = self.poll()
        fresh = failed - self._known_failed
        self._known_failed |= fresh
        return fresh

    def forget(self, node_id: int) -> None:
        """Clear a node's failed record (after a slot is re-used)."""
        self._known_failed.discard(node_id)
        self._missed[node_id] = 0

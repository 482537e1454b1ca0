"""Shared recovery result types.

Both recovery strategies (and the checkpoint baseline) report their
work through :class:`RecoveryStats`, whose three phase timings map onto
the paper's reload / reconstruct / replay breakdown (Sections 5.1-5.2,
Figs. 2c and 9).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RecoveryStats:
    """Accounting for one recovery event."""

    strategy: str
    #: Nodes that crashed, and (Rebirth) the standby nodes that
    #: replaced them.
    failed_nodes: tuple[int, ...] = ()
    newbie_nodes: tuple[int, ...] = ()
    #: Phase timings in simulated seconds (Section 5.1: Reloading,
    #: Reconstruction, Replay).
    reload_s: float = 0.0
    reconstruct_s: float = 0.0
    replay_s: float = 0.0
    #: Failure-detection delay preceding the recovery proper.
    detection_s: float = 0.0
    #: Work counts.
    vertices_recovered: int = 0
    edges_recovered: int = 0
    recovery_messages: int = 0
    recovery_bytes: int = 0
    #: Iterations of lost computation re-executed afterwards (nonzero
    #: only for the checkpoint baseline).
    replayed_iterations: int = 0
    #: The iteration at which the failure was handled.
    at_iteration: int = 0
    #: Post-recovery FT repair (engine pass re-creating replicas for
    #: vertices below K+1; DESIGN.md §9).  Charged separately from the
    #: three recovery phases, so ``total_s`` keeps its paper meaning.
    repair_s: float = 0.0
    repaired_vertices: int = 0
    repair_replicas_created: int = 0
    repair_bytes: int = 0

    @property
    def total_s(self) -> float:
        """Recovery time excluding detection (the paper's Table 2/5)."""
        return self.reload_s + self.reconstruct_s + self.replay_s

    @property
    def total_with_detection_s(self) -> float:
        return self.detection_s + self.total_s

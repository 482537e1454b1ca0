"""Worker-node abstraction with fail-stop semantics.

A :class:`Node` is a container for per-machine state (the local graph
lives in :mod:`repro.engine.local_graph`) plus a crash flag.  The paper
assumes a fail-stop model (Section 3.2): a crashed machine stops
responding and never emits wild writes, so crashing a node here simply
drops its in-memory state and rejects further operations.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import NodeCrashedError


class NodeState(enum.Enum):
    """Lifecycle of a simulated machine."""

    #: Participating in computation.
    ALIVE = "alive"
    #: Crashed (fail-stop); memory contents lost.
    CRASHED = "crashed"
    #: Hot spare, not yet participating (Rebirth target).
    STANDBY = "standby"
    #: Drained and deliberately removed from the cluster (elastic
    #: scale-in, DESIGN.md §14).  Unlike CRASHED, retirement is planned:
    #: all state was moved off first, so no recovery ever runs for it.
    RETIRED = "retired"


class Node:
    """One simulated machine.

    Attributes
    ----------
    node_id:
        Stable identifier; standby nodes get ids above the workers'.
    cores:
        CPU cores, used by the cost model for compute time.
    local:
        Arbitrary per-node payload (the engine stores its
        ``LocalGraph`` here).  Dropped on crash, as DRAM would be.
    """

    def __init__(self, node_id: int, cores: int = 4,
                 state: NodeState = NodeState.ALIVE):
        self.node_id = node_id
        self.cores = cores
        self.state = state
        self.local: Any = None
        #: Number of times this node has been (re)started; lets tests
        #: tell a reborn node apart from the original.
        self.incarnation = 0

    # -- state transitions ---------------------------------------------

    @property
    def is_alive(self) -> bool:
        return self.state is NodeState.ALIVE

    @property
    def is_crashed(self) -> bool:
        return self.state is NodeState.CRASHED

    @property
    def is_standby(self) -> bool:
        return self.state is NodeState.STANDBY

    def retire(self) -> None:
        """Planned removal after a drain (no state left to lose)."""
        if self.state is not NodeState.ALIVE:
            raise NodeCrashedError(self.node_id, "retire")
        self.state = NodeState.RETIRED
        self.local = None

    def crash(self) -> None:
        """Fail-stop: lose all volatile state and stop responding."""
        if self.state is NodeState.CRASHED:
            return
        self.state = NodeState.CRASHED
        self.local = None

    def activate(self) -> None:
        """Bring a standby node into the computation (Rebirth)."""
        if self.state is not NodeState.STANDBY:
            raise NodeCrashedError(self.node_id, "activate")
        self.state = NodeState.ALIVE
        self.incarnation += 1

    def check_alive(self, operation: str = "operation") -> None:
        """Raise :class:`NodeCrashedError` unless the node is alive."""
        if self.state is not NodeState.ALIVE:
            raise NodeCrashedError(self.node_id, operation)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Node(id={self.node_id}, state={self.state.value}, "
                f"cores={self.cores})")

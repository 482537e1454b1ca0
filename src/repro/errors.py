"""Exception hierarchy for the Imitator reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  The sub-classes mirror the major subsystems: cluster
substrate, graph loading/partitioning, engine execution, and fault
tolerance.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class ClusterError(ReproError):
    """Base class for cluster-substrate failures."""


class NodeCrashedError(ClusterError):
    """An operation was attempted on a node that has crashed (fail-stop)."""

    def __init__(self, node_id: int, operation: str = "operation"):
        self.node_id = node_id
        self.operation = operation
        super().__init__(f"node {node_id} has crashed; {operation} rejected")


class UnknownNodeError(ClusterError):
    """A node id outside the cluster membership was referenced."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        super().__init__(f"unknown node id: {node_id}")


class StorageError(ClusterError):
    """Persistent-store (simulated HDFS) failure, e.g. a missing snapshot."""


class GraphError(ReproError):
    """Base class for graph construction and I/O errors."""


class GraphFormatError(GraphError):
    """An edge-list or adjacency file could not be parsed."""


class PartitionError(ReproError):
    """A partitioning is malformed (bad node count, unassigned edges...)."""


class EngineError(ReproError):
    """Base class for graph-engine execution errors."""


class FaultToleranceError(ReproError):
    """Base class for fault-tolerance subsystem errors."""


class UnrecoverableFailureError(FaultToleranceError):
    """Every recovery rung failed; the run cannot continue.

    Raised when a vertex lost every replica (master and all mirrors) and
    no checkpoint exists to fall back to, or when no recovery mechanism
    is configured at all.  Carries structured context so callers and
    operators can see *which* rungs of the fallback ladder were tried
    before giving up (DESIGN.md §9).
    """

    def __init__(self, message: str, lost_vertices: int = 0,
                 rungs_attempted: tuple[str, ...] = (),
                 surviving_nodes: tuple[int, ...] = ()):
        self.lost_vertices = lost_vertices
        self.rungs_attempted = tuple(rungs_attempted)
        self.surviving_nodes = tuple(surviving_nodes)
        super().__init__(message)


class NoStandbyNodeError(FaultToleranceError):
    """Rebirth recovery was requested but no standby node is available."""


class CheckpointError(FaultToleranceError):
    """A checkpoint could not be written or read back."""

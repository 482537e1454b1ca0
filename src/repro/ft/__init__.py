"""Fault tolerance: the paper's contribution (replication) plus the
checkpoint baseline, the two recovery strategies, and Young's-model
efficiency analysis."""

from repro.ft.replication import ReplicationPlan, plan_replication
from repro.ft.checkpoint import CheckpointManager, CheckpointRecoveryStats
from repro.ft.edge_ckpt import EdgeCkptStore
from repro.ft.rebirth import RebirthRecovery
from repro.ft.migration import MigrationRecovery
from repro.ft.recovery import RecoveryStats
from repro.ft.young import optimal_interval, efficiency

__all__ = [
    "ReplicationPlan",
    "plan_replication",
    "CheckpointManager",
    "CheckpointRecoveryStats",
    "EdgeCkptStore",
    "RebirthRecovery",
    "MigrationRecovery",
    "RecoveryStats",
    "optimal_interval",
    "efficiency",
]

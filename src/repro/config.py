"""Configuration objects for the cluster, engine and fault tolerance.

The defaults reproduce the paper's experimental setup (Section 6.1):
a 50-node cluster with 4 cores per node, 1 GigE networking, and HDFS
with a replication factor of three as the persistent store.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Default heartbeat tuning for the *multiprocessing* backend, in
#: **wall-clock** seconds.  The simulator's defaults
#: (:attr:`ClusterConfig.heartbeat_interval_s` = 0.5 sim-seconds with
#: :attr:`ClusterConfig.heartbeat_misses` = 14, the paper's ~7 s
#: detection span) model the paper's testbed; real forked workers are
#: polled much faster but with a far larger miss budget, because a
#: worker busy inside a compute round legitimately goes silent for many
#: polls.  Both backends resolve their defaults from this one module —
#: there is no second hardcoded tuning surface (DESIGN.md §14).
MP_HEARTBEAT_INTERVAL_S = 0.2
MP_HEARTBEAT_MISSES = 150


class PartitionStrategy(enum.Enum):
    """Graph partitioning strategies implemented by :mod:`repro.partition`."""

    #: Hash-based (random) edge-cut — Cyclops/Hama default.
    HASH_EDGE_CUT = "hash_edge_cut"
    #: Fennel streaming heuristic edge-cut (Section 6.6).
    FENNEL_EDGE_CUT = "fennel_edge_cut"
    #: Random vertex-cut — PowerGraph default.
    RANDOM_VERTEX_CUT = "random_vertex_cut"
    #: 2-D grid-constrained vertex-cut (GraphBuilder).
    GRID_VERTEX_CUT = "grid_vertex_cut"
    #: PowerLyra hybrid-cut — vertex-cut default in the paper (Section 6.10).
    HYBRID_CUT = "hybrid_cut"

    @property
    def is_edge_cut(self) -> bool:
        return self in (PartitionStrategy.HASH_EDGE_CUT,
                        PartitionStrategy.FENNEL_EDGE_CUT)

    @property
    def is_vertex_cut(self) -> bool:
        return not self.is_edge_cut


class FTMode(enum.Enum):
    """Which fault-tolerance mechanism the engine runs with."""

    #: No fault tolerance (the paper's BASE configuration).
    NONE = "none"
    #: Replication-based fault tolerance (Imitator, the contribution).
    REPLICATION = "replication"
    #: Near-optimal distributed checkpointing (Imitator-CKPT baseline).
    CHECKPOINT = "checkpoint"


class RecoveryStrategy(enum.Enum):
    """How a REPLICATION-mode cluster recovers from a crash (Section 5)."""

    #: Reconstruct the crashed node's state on a standby node.
    REBIRTH = "rebirth"
    #: Scatter the crashed node's work across the surviving nodes.
    MIGRATION = "migration"


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated cluster (Section 6.1)."""

    #: Number of worker nodes participating in computation.
    num_nodes: int = 50
    #: Standby nodes available for Rebirth recovery (hot spares).
    num_standby: int = 1
    #: CPU cores per node (bounds intra-node compute parallelism).
    cores_per_node: int = 4
    #: Heartbeat interval for failure detection, in seconds (Section 3.2).
    heartbeat_interval_s: float = 0.5
    #: Heartbeats missed before a node is declared dead.  The default
    #: yields the ~7 s conservative detection span the paper's case
    #: study shows (Fig. 12).
    heartbeat_misses: int = 14
    #: Root seed for all derived randomness.
    seed: int = 2014

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.num_standby < 0:
            raise ConfigError("num_standby must be >= 0")
        if self.cores_per_node < 1:
            raise ConfigError("cores_per_node must be >= 1")
        if self.heartbeat_interval_s <= 0:
            raise ConfigError("heartbeat_interval_s must be positive")


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Fault-tolerance policy for one job."""

    mode: FTMode = FTMode.REPLICATION
    #: Number of simultaneous machine failures to tolerate (K in the paper).
    ft_level: int = 1
    #: Recovery strategy for REPLICATION mode.
    recovery: RecoveryStrategy = RecoveryStrategy.REBIRTH
    #: Skip synchronising selfish vertices during normal execution
    #: (Section 4.4).  Never changes results, only message counts.
    selfish_optimization: bool = True
    #: Checkpoint interval in iterations (CHECKPOINT mode; Section 6.1
    #: reports interval=1 as the default upper-bound configuration).
    checkpoint_interval: int = 1
    #: Store checkpoints in an in-memory HDFS instead of disk-backed
    #: (the "in-memory HDFS" variant of Fig. 7).
    checkpoint_in_memory: bool = False
    #: Candidate sample size for randomized FT-replica placement.
    placement_candidates: int = 3
    #: Safety-net checkpoint interval for REPLICATION mode (iterations
    #: between low-frequency full snapshots; 0 disables).  When enabled,
    #: the fallback ladder can recover from >K simultaneous failures by
    #: reloading the snapshot instead of aborting (DESIGN.md §9).
    safety_checkpoint_interval: int = 0
    #: Adaptive replication floor bounds (DESIGN.md §14).  When the
    #: bounds differ from ``ft_level`` an :class:`repro.membership.FtPolicy`
    #: raises/lowers the *effective* K inside ``[ft_level_min,
    #: ft_level_max]`` from observed failure statistics, driving a
    #: throttled background repair.  ``None`` pins both bounds to
    #: ``ft_level`` (static K — the paper's behaviour, and the default).
    ft_level_min: int | None = None
    ft_level_max: int | None = None

    @property
    def floor_min(self) -> int:
        """Lower bound of the effective replication floor."""
        return self.ft_level if self.ft_level_min is None else self.ft_level_min

    @property
    def floor_max(self) -> int:
        """Upper bound of the effective replication floor."""
        return self.ft_level if self.ft_level_max is None else self.ft_level_max

    @property
    def adaptive_ft(self) -> bool:
        """Whether the adaptive-floor policy is enabled."""
        return (self.mode is FTMode.REPLICATION
                and self.floor_min != self.floor_max)

    def __post_init__(self) -> None:
        if self.ft_level < 0:
            raise ConfigError(f"ft_level must be >= 0, got {self.ft_level}")
        if self.mode is FTMode.REPLICATION and self.ft_level < 1:
            raise ConfigError("REPLICATION mode requires ft_level >= 1")
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be >= 1")
        if self.placement_candidates < 1:
            raise ConfigError("placement_candidates must be >= 1")
        if self.safety_checkpoint_interval < 0:
            raise ConfigError("safety_checkpoint_interval must be >= 0")
        if (self.safety_checkpoint_interval
                and self.mode is not FTMode.REPLICATION):
            raise ConfigError(
                "safety_checkpoint_interval only applies to REPLICATION "
                "mode (CHECKPOINT mode already snapshots)")
        if self.ft_level_min is not None or self.ft_level_max is not None:
            if self.mode is not FTMode.REPLICATION:
                raise ConfigError(
                    "ft_level_min/ft_level_max only apply to REPLICATION "
                    "mode")
            if self.floor_min < 1:
                raise ConfigError("ft_level_min must be >= 1")
            if not self.floor_min <= self.ft_level <= self.floor_max:
                raise ConfigError(
                    f"ft_level {self.ft_level} must lie inside "
                    f"[ft_level_min={self.floor_min}, "
                    f"ft_level_max={self.floor_max}]")


@dataclass(frozen=True)
class EngineConfig:
    """Execution policy for one job."""

    partition: PartitionStrategy = PartitionStrategy.HASH_EDGE_CUT
    #: Maximum number of iterations (supersteps) to run.
    max_iterations: int = 20
    #: Stop early once no vertex is active.
    halt_on_inactive: bool = True
    #: Elide sync records for masters whose committed update is a
    #: non-activating no-op (value and flags unchanged).  Never changes
    #: results; collapses traffic in the convergence tail.
    sync_elision: bool = True
    #: Run the structure-of-arrays fast path when the vertex program
    #: declares an array kernel (DESIGN.md §11).  Bit-for-bit equal to
    #: the scalar loop (the differential suite is the oracle); programs
    #: without a kernel — and edge-mutating ones — always take the
    #: scalar path regardless.  Off = force the scalar loop for A/B.
    vectorized: bool = True
    #: Message combining (DESIGN.md §15).  When the program declares a
    #: commutative-associative ``combiner`` (sum/min/max), same-
    #: destination-gid gather contributions fold into one partial per
    #: (dst_node, gid) before ``Network.send`` — one combined record on
    #: the wire, with pre-combine counts tracked in ``net.combine.*``.
    #: Off = ship the raw per-edge contributions (``RawGatherBatch``)
    #: and fold them on the receiver: bit-identical values and
    #: identical *logical* traffic (the cost model is unchanged), but
    #: ~in-degree× more physical gather records — kept as the
    #: before-side of the message-reduction benchmark and for
    #: differential tests.  Programs with no combiner are unaffected.
    combining: bool = True

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")


@dataclass
class JobConfig:
    """Bundle of the three configs describing one complete run."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    ft: FaultToleranceConfig = field(default_factory=FaultToleranceConfig)

    def validate(self) -> None:
        """Cross-field validation that single configs cannot express."""
        if self.ft.mode is FTMode.REPLICATION:
            if self.ft.ft_level >= self.cluster.num_nodes:
                raise ConfigError(
                    f"ft_level {self.ft.ft_level} needs at least "
                    f"{self.ft.ft_level + 1} nodes, cluster has "
                    f"{self.cluster.num_nodes}")
            if self.ft.floor_max >= self.cluster.num_nodes:
                raise ConfigError(
                    f"ft_level_max {self.ft.floor_max} needs at least "
                    f"{self.ft.floor_max + 1} nodes, cluster has "
                    f"{self.cluster.num_nodes}")

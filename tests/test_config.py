"""Configuration validation tests."""

from __future__ import annotations

import pytest

from repro.config import (
    ClusterConfig,
    EngineConfig,
    FaultToleranceConfig,
    FTMode,
    JobConfig,
    PartitionStrategy,
    RecoveryStrategy,
)
from repro.errors import ConfigError


class TestClusterConfig:
    def test_defaults_match_paper_testbed(self):
        cfg = ClusterConfig()
        assert cfg.num_nodes == 50
        assert cfg.cores_per_node == 4
        assert cfg.heartbeat_interval_s == 0.5

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_nodes=0)

    def test_rejects_negative_standby(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_standby=-1)

    def test_rejects_bad_heartbeat(self):
        with pytest.raises(ConfigError):
            ClusterConfig(heartbeat_interval_s=0.0)


class TestFaultToleranceConfig:
    def test_replication_needs_positive_level(self):
        with pytest.raises(ConfigError):
            FaultToleranceConfig(mode=FTMode.REPLICATION, ft_level=0)

    def test_none_mode_allows_zero_level(self):
        cfg = FaultToleranceConfig(mode=FTMode.NONE, ft_level=0)
        assert cfg.ft_level == 0

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigError):
            FaultToleranceConfig(checkpoint_interval=0)

    def test_rejects_negative_level(self):
        with pytest.raises(ConfigError):
            FaultToleranceConfig(ft_level=-1)


class TestEngineConfig:
    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigError):
            EngineConfig(max_iterations=0)

    def test_partition_kind_flags(self):
        assert PartitionStrategy.HASH_EDGE_CUT.is_edge_cut
        assert PartitionStrategy.FENNEL_EDGE_CUT.is_edge_cut
        assert PartitionStrategy.RANDOM_VERTEX_CUT.is_vertex_cut
        assert PartitionStrategy.GRID_VERTEX_CUT.is_vertex_cut
        assert PartitionStrategy.HYBRID_CUT.is_vertex_cut


class TestJobConfig:
    def test_cross_validation_ft_level_vs_nodes(self):
        job = JobConfig(cluster=ClusterConfig(num_nodes=2),
                        ft=FaultToleranceConfig(ft_level=2))
        with pytest.raises(ConfigError):
            job.validate()

    def test_valid_default_job(self):
        JobConfig().validate()

    def test_recovery_enum_roundtrip(self):
        assert RecoveryStrategy("rebirth") is RecoveryStrategy.REBIRTH
        assert RecoveryStrategy("migration") is RecoveryStrategy.MIGRATION

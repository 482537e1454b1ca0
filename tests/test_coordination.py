"""Coordination service tests: the membership registry and the failure
detector."""

from __future__ import annotations

import pytest

from repro.cluster.coordination import CoordinationService
from repro.cluster.heartbeat import FailureDetector
from repro.cluster.node import Node, NodeState
from repro.errors import UnknownNodeError


class TestMembership:
    def test_register_deregister(self):
        svc = CoordinationService()
        svc.register(0)
        svc.register(1)
        assert svc.members == frozenset({0, 1})
        svc.deregister(0)
        assert svc.members == frozenset({1})

    def test_deregister_unknown_raises(self):
        svc = CoordinationService()
        with pytest.raises(UnknownNodeError):
            svc.deregister(7)

    def test_rejoin_after_deregister(self):
        svc = CoordinationService()
        svc.register(0)
        svc.register(1)
        svc.deregister(1)
        svc.register(1)  # standby took over logical id 1
        assert svc.members == frozenset({0, 1})


class TestFailureDetector:
    def make_cluster(self, n=3):
        return {i: Node(i) for i in range(n)}

    def test_poll_is_idempotent(self):
        nodes = self.make_cluster()
        det = FailureDetector(nodes)
        nodes[1].crash()
        assert det.poll() == {1}
        # Repeated polls report the same steady state, no side effects.
        assert det.poll() == {1}
        assert det.newly_failed() == {1}
        assert det.newly_failed() == set()

    def test_poll_idempotent_across_recovery(self):
        """A re-heartbeating logical id clears the failed record.

        After Rebirth a standby takes over the crashed node's logical
        id and starts heartbeating.  The detector must clear its
        known-failed record *without* an explicit ``forget``, so that a
        second crash of the same id is reported as a fresh failure.
        """
        nodes = self.make_cluster()
        det = FailureDetector(nodes)
        nodes[2].crash()
        assert det.newly_failed() == {2}
        # Rebirth: logical id 2 is alive again (new incarnation).
        nodes[2] = Node(2, state=NodeState.STANDBY)
        nodes[2].activate()
        det._nodes = nodes  # the engine re-points the node table
        assert det.poll() == set()
        # Second crash of the same logical id is fresh, not stale.
        nodes[2].crash()
        assert det.newly_failed() == {2}

    def test_standby_crash_not_reported_to_members(self):
        nodes = self.make_cluster()
        nodes[3] = Node(3, state=NodeState.STANDBY)
        det = FailureDetector(nodes, members=lambda: {0, 1, 2})
        nodes[3].crash()
        assert det.poll() == set()
        assert det.newly_failed() == set()

    def test_detection_delay(self):
        det = FailureDetector(self.make_cluster(), interval_s=0.5,
                              misses=14)
        assert det.detection_delay_s == pytest.approx(7.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FailureDetector({}, interval_s=0)
        with pytest.raises(ValueError):
            FailureDetector({}, misses=0)

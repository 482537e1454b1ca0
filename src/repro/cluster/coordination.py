"""ZooKeeper-like coordination: the membership registry.

Imitator inherits its barriers and membership from Apache Hama, over
ZooKeeper (Section 3.2, footnote 5).  Here the barriers are the
engine's own (a failure is detected through the cluster's heartbeat
:class:`~repro.cluster.heartbeat.FailureDetector`), so the service keeps
one job: which nodes are members — the workers and any reborn or joined
node — in a deterministic single-process form.
"""

from __future__ import annotations

from repro.errors import UnknownNodeError


class CoordinationService:
    """Membership registry: the nodes of the job."""

    def __init__(self) -> None:
        self._members: set[int] = set()

    def register(self, node_id: int) -> None:
        """Add a node to the job (workers, reborn standbys, joins)."""
        self._members.add(node_id)

    def deregister(self, node_id: int) -> None:
        if node_id not in self._members:
            raise UnknownNodeError(node_id)
        self._members.discard(node_id)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self._members)

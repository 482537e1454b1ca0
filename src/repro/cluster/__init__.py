"""Simulated cluster substrate.

This package stands in for the paper's 50-node EC2-like testbed: worker
:class:`Node` objects with fail-stop semantics, a byte-accounting
:class:`Network`, a ZooKeeper-like :class:`CoordinationService`
(the membership registry), a heartbeat
:class:`FailureDetector`, and a :class:`PersistentStore` standing in for
HDFS.  All components are deterministic and single-process; simulated
time comes from :mod:`repro.costmodel`.
"""

from repro.cluster.node import Node, NodeState
from repro.cluster.network import Network, Message, MessageKind
from repro.cluster.coordination import CoordinationService
from repro.cluster.storage import PersistentStore, StoredObject
from repro.cluster.heartbeat import FailureDetector
from repro.cluster.cluster import Cluster

__all__ = [
    "Node",
    "NodeState",
    "Network",
    "Message",
    "MessageKind",
    "CoordinationService",
    "PersistentStore",
    "StoredObject",
    "FailureDetector",
    "Cluster",
]

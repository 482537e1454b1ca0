"""The assembled cluster: nodes + network + coordination + storage.

A :class:`Cluster` owns everything a job needs from the substrate and
provides the failure-injection surface used by the fault-tolerance tests
and benchmarks (``crash``, ``claim_standby``).
"""

from __future__ import annotations

from repro.cluster.coordination import CoordinationService
from repro.cluster.heartbeat import FailureDetector
from repro.cluster.network import Network
from repro.cluster.node import Node, NodeState
from repro.cluster.storage import PersistentStore
from repro.config import ClusterConfig
from repro.costmodel import CostModel, DEFAULT_COST_MODEL, NodeClocks
from repro.errors import ClusterError, NoStandbyNodeError, UnknownNodeError


class Cluster:
    """A simulated cluster matching the paper's testbed layout."""

    def __init__(self, config: ClusterConfig | None = None,
                 cost_model: CostModel | None = None,
                 store_in_memory: bool = False):
        self.config = config or ClusterConfig()
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        n = self.config.num_nodes
        self.nodes: dict[int, Node] = {}
        for nid in range(n):
            self.nodes[nid] = Node(nid, cores=self.config.cores_per_node)
        for k in range(self.config.num_standby):
            nid = n + k
            self.nodes[nid] = Node(nid, cores=self.config.cores_per_node,
                                   state=NodeState.STANDBY)
        self.network = Network(is_alive=self._node_is_alive)
        self.coordination = CoordinationService()
        self.detector = FailureDetector(
            self.nodes,
            interval_s=self.config.heartbeat_interval_s,
            misses=self.config.heartbeat_misses,
            members=lambda: self.coordination.members)
        self.store = PersistentStore(in_memory=store_in_memory)
        self.clocks = NodeClocks(len(self.nodes))
        for nid in range(n):
            self.coordination.register(nid)
        #: Monotonic membership epoch, bumped whenever the set of
        #: read-eligible workers changes (join/drain start, retirement,
        #: join completion).  Serve-layer routing caches key off it so
        #: reads never land on a draining or half-joined node
        #: (DESIGN.md §14).
        self.membership_epoch = 0
        #: Workers admitted mid-run (elastic scale-out).
        self._joined: set[int] = set()
        #: Workers currently being drained (masters moving off) or
        #: still receiving state (joining); not read-eligible.
        self._transitioning: set[int] = set()
        #: The draining subset of ``_transitioning`` (may not receive
        #: new replica placements).
        self._draining: set[int] = set()
        #: Workers retired after a completed drain.
        self._retired: set[int] = set()

    # -- views -------------------------------------------------------------

    def _node_is_alive(self, node_id: int) -> bool:
        node = self.nodes.get(node_id)
        return node is not None and node.is_alive

    def node(self, node_id: int) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def alive_workers(self) -> list[int]:
        """Ids of alive nodes registered in the barrier group, sorted."""
        return sorted(nid for nid in self.coordination.members
                      if self._node_is_alive(nid))

    def standby_nodes(self) -> list[int]:
        return sorted(nid for nid, node in self.nodes.items()
                      if node.is_standby)

    def live_standby_nodes(self) -> list[int]:
        """Standby ids that are actually claimable as Rebirth targets.

        A spare can go bad while idle (heartbeat.py's "spare going
        bad"); a dead spare must never be handed out, whatever state
        bookkeeping says, so this filters out crashed nodes explicitly
        rather than trusting the STANDBY flag alone.
        """
        return sorted(nid for nid, node in self.nodes.items()
                      if node.is_standby and not node.is_crashed)

    @property
    def num_workers(self) -> int:
        """Initially provisioned worker-id space (load-time constant).

        Elastic membership admits workers *above* this id range (and
        above the standby pool); use :meth:`expected_workers` for the
        current population and :meth:`alive_workers` for liveness.
        """
        return self.config.num_nodes

    def expected_workers(self) -> int:
        """Workers currently expected to participate in computation."""
        return (self.config.num_nodes + len(self._joined)
                - len(self._retired))

    def read_eligible(self, node_id: int) -> bool:
        """Whether the serve layer may route a read to this node.

        Draining nodes are mid-scale-in (their masters are moving off),
        joining nodes are mid-scale-out (state still arriving) and
        retired nodes are gone — none may serve reads (DESIGN.md §14).
        """
        return (node_id not in self._transitioning
                and node_id not in self._retired
                and self._node_is_alive(node_id))

    def placement_eligible(self, node_id: int) -> bool:
        """Whether new replica copies may be placed on this node.

        Draining and retired nodes must not receive state (it would be
        moved right back off); joining nodes are fine — they are
        receiving state anyway.
        """
        return (self._node_is_alive(node_id)
                and node_id not in self._draining
                and node_id not in self._retired)

    # -- elastic membership (DESIGN.md §14) ------------------------------

    def join_node(self) -> int:
        """Admit a fresh worker node mid-run (elastic scale-out).

        The node id is allocated above every existing node (workers,
        spares, earlier joiners), registered in the barrier group and
        marked *transitioning* until the membership layer finishes
        moving state onto it.  Returns the new node id.
        """
        nid = max(self.nodes) + 1
        self.nodes[nid] = Node(nid, cores=self.config.cores_per_node)
        while len(self.clocks) <= nid:
            self.clocks.add_node(self.clocks.global_max())
        self.coordination.register(nid)
        self._joined.add(nid)
        self._transitioning.add(nid)
        self.membership_epoch += 1
        return nid

    def begin_drain(self, node_id: int) -> None:
        """Mark a worker as draining (masters will move off it)."""
        node = self.node(node_id)
        node.check_alive("drain")
        if node_id in self._retired:
            raise ClusterError(f"node {node_id} is already retired")
        self._transitioning.add(node_id)
        self._draining.add(node_id)
        self.membership_epoch += 1

    def finish_join(self, node_id: int) -> None:
        """A joining node finished receiving state; it is now a full,
        read-eligible worker."""
        self._transitioning.discard(node_id)
        self.membership_epoch += 1

    def abort_transition(self, node_id: int) -> None:
        """Abandon an in-flight join or drain whose target crashed.

        The crash makes the transition moot — the failure detector and
        recovery own the node now.  Bookkeeping is cleared so routing
        eligibility reflects liveness alone.
        """
        self._transitioning.discard(node_id)
        self._draining.discard(node_id)
        self.membership_epoch += 1

    def retire_node(self, node_id: int) -> None:
        """Complete a drain: deregister and retire the node.

        Must only be called once every master and replica copy has been
        moved off — retirement is planned removal, never a failure, so
        the detector forgets the id and no recovery runs.
        """
        node = self.node(node_id)
        self.coordination.deregister(node_id)
        node.retire()
        self.detector.forget(node_id)
        self.network.purge_from(node_id)
        self.network.purge_inbox(node_id)
        self._transitioning.discard(node_id)
        self._draining.discard(node_id)
        self._retired.add(node_id)
        self.membership_epoch += 1

    # -- failure injection ----------------------------------------------

    def crash(self, node_id: int) -> None:
        """Fail-stop a node: drop memory, purge its in-flight messages."""
        node = self.node(node_id)
        node.crash()
        self.network.purge_from(node_id)
        self.network.purge_inbox(node_id)

    def claim_standby(self) -> int:
        """Activate one *live* standby node for Rebirth recovery."""
        standbys = self.live_standby_nodes()
        if not standbys:
            raise NoStandbyNodeError("no live standby available for Rebirth")
        nid = standbys[0]
        self.nodes[nid].activate()
        self.coordination.register(nid)
        return nid

    def replace_node(self, crashed_id: int) -> Node:
        """Let a standby take over a crashed node's *logical* identity.

        The paper's recovery protocols address the replacement by the
        crashed node's logical id (surviving mirrors "know the new
        coming node's logic ID", Section 5.3.1), so the simulated
        standby is consumed and a fresh node re-registers under the old
        id with a bumped incarnation.
        """
        crashed = self.node(crashed_id)
        if not crashed.is_crashed:
            raise NoStandbyNodeError(
                f"node {crashed_id} has not crashed; nothing to replace")
        standbys = self.live_standby_nodes()
        if not standbys:
            raise NoStandbyNodeError("no live standby available for Rebirth")
        del self.nodes[standbys[0]]
        return self.restart_node(crashed_id)

    def restart_node(self, crashed_id: int) -> Node:
        """Reboot a crashed node's logical id without consuming a spare.

        Used by the checkpoint rung of the fallback ladder: snapshot
        recovery reloads *everything* from the persistent store, so a
        re-provisioned machine with empty memory can take the slot even
        when the standby pool is dry (DESIGN.md §9).
        """
        crashed = self.node(crashed_id)
        if not crashed.is_crashed:
            raise ClusterError(
                f"node {crashed_id} has not crashed; nothing to restart")
        fresh = Node(crashed_id, cores=self.config.cores_per_node)
        fresh.incarnation = crashed.incarnation + 1
        self.nodes[crashed_id] = fresh
        self.detector.forget(crashed_id)
        self.coordination.register(crashed_id)
        return fresh

    def add_standby(self) -> int:
        """Provision an extra hot spare (grows the cluster)."""
        nid = max(self.nodes) + 1
        self.nodes[nid] = Node(nid, cores=self.config.cores_per_node,
                               state=NodeState.STANDBY)
        self.clocks.add_node(self.clocks.global_max())
        return nid

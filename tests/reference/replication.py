"""Reference replication planning: the per-vertex list planner and the
edge-walking vertex-cut master assignment ``repro.ft.replication`` and
``repro.partition.base`` had before they went array-native.

Kept verbatim as oracles (imported by tests only): the plan holds one
Python list of nodes per vertex, placement and election walk every
vertex, and ``validate`` checks each vertex in turn.  The production
planner must equal this one list for list, and
``tests/reference/construction.py`` builds from this plan, so the
construction equivalence suite compares two independent pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import FaultToleranceConfig
from repro.errors import ConfigError
from repro.graph.graph import Graph
from repro.partition.base import EdgeCutPartitioning, VertexCutPartitioning
from repro.utils.hashing import hash_to_node
from repro.utils.rng import SeededRng


@dataclass
class ReplicationPlan:
    """Complete replication layout for one job."""

    ft_level: int
    num_nodes: int
    #: v -> node of its master.
    master_of: np.ndarray
    #: v -> sorted list of replica nodes (computation + FT, master
    #: excluded).
    replica_nodes: list[list[int]]
    #: v -> subset of ``replica_nodes`` that exist only for fault
    #: tolerance.
    ft_nodes: list[list[int]]
    #: v -> ordered mirror nodes; index in this list is the mirror id
    #: (the lowest surviving id leads recovery, Section 5.3.1).
    mirror_nodes: list[list[int]]
    #: Selfish flag per vertex (zero out-degree).
    selfish: np.ndarray = field(repr=False, default=None)

    # -- census used by Figs. 3 and 8 ---------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.replica_nodes)

    def total_computation_replicas(self) -> int:
        return sum(len(r) - len(f) for r, f in
                   zip(self.replica_nodes, self.ft_nodes))

    def total_ft_replicas(self) -> int:
        return sum(len(f) for f in self.ft_nodes)

    def extra_replica_fraction(self) -> float:
        """FT replicas as a fraction of all replicas (Fig. 8a)."""
        total = sum(len(r) for r in self.replica_nodes)
        if total == 0:
            return 0.0
        return self.total_ft_replicas() / total

    def validate(self) -> None:
        """Check invariants P2/P3 from DESIGN.md."""
        for v, (replicas, fts, mirrors) in enumerate(
                zip(self.replica_nodes, self.ft_nodes, self.mirror_nodes)):
            master = int(self.master_of[v])
            rset = set(replicas)
            if master in rset:
                raise ConfigError(
                    f"vertex {v}: master node {master} also in replicas")
            if len(rset) != len(replicas):
                raise ConfigError(f"vertex {v}: duplicate replica nodes")
            if not set(fts) <= rset:
                raise ConfigError(f"vertex {v}: FT node not in replicas")
            if not set(mirrors) <= rset:
                raise ConfigError(f"vertex {v}: mirror node not a replica")
            if len(mirrors) != min(self.ft_level, len(replicas)):
                raise ConfigError(
                    f"vertex {v}: expected {self.ft_level} mirrors, "
                    f"got {len(mirrors)} of {len(replicas)} replicas")
            if len(replicas) < self.ft_level:
                raise ConfigError(
                    f"vertex {v}: only {len(replicas)} copies for "
                    f"ft_level {self.ft_level}")


def computation_replicas(graph: Graph, partitioning) -> list[set[int]]:
    """Per-vertex computation replica node sets (master excluded)."""
    if not isinstance(partitioning,
                      (EdgeCutPartitioning, VertexCutPartitioning)):
        raise ConfigError(
            f"unsupported partitioning: {type(partitioning).__name__}")
    master_of = np.asarray(partitioning.master_of)
    if isinstance(partitioning, EdgeCutPartitioning):
        # A source is copied to every node mastering one of its targets.
        vertex, node = graph.sources, master_of[graph.targets]
    else:
        # Both endpoints are copied to the node their edge lives on.
        vertex = np.concatenate([graph.sources, graph.targets])
        node = np.tile(np.asarray(partitioning.edge_node), 2)
    num_nodes = partitioning.num_nodes
    off_master = node != master_of[vertex]
    pairs = np.unique(vertex[off_master] * num_nodes + node[off_master])
    replicas: list[set[int]] = [set() for _ in range(graph.num_vertices)]
    for v, replica_node in zip(*map(np.ndarray.tolist,
                                    divmod(pairs, num_nodes))):
        replicas[v].add(replica_node)
    return replicas


def plan_replication(graph: Graph, partitioning,
                     ft_config: FaultToleranceConfig,
                     seed: int = 0) -> ReplicationPlan:
    """Produce the full replication layout for a job.

    With ``ft_level == 0`` (BASE / CKPT configurations) no FT replicas
    or mirrors are created and the plan just records the computation
    replicas.
    """
    n = graph.num_vertices
    num_nodes = partitioning.num_nodes
    k = ft_config.ft_level
    master_of = np.asarray(partitioning.master_of)
    replica_sets = computation_replicas(graph, partitioning)
    selfish = graph.out_degrees() == 0

    ft_nodes: list[list[int]] = [[] for _ in range(n)]
    if k > 0:
        if k >= num_nodes:
            raise ConfigError(
                f"ft_level {k} impossible with {num_nodes} nodes")
        rng = SeededRng(seed, "ft-placement")
        # Total copies (masters + replicas) per node; FT placement
        # balances this load.
        load = np.bincount(master_of, minlength=num_nodes).astype(np.int64)
        for v, rset in enumerate(replica_sets):
            for node in rset:
                load[node] += 1
        candidates = max(1, ft_config.placement_candidates)
        for v in range(n):
            rset = replica_sets[v]
            master = int(master_of[v])
            while len(rset) < k:
                excluded = rset | {master}
                pool = [node for node in range(num_nodes)
                        if node not in excluded]
                if not pool:
                    raise ConfigError(
                        f"vertex {v}: cannot place {k} copies on "
                        f"{num_nodes} nodes")
                if len(pool) > candidates:
                    sample = rng.sample(pool, candidates)
                else:
                    sample = pool
                best = min(sample, key=lambda node: (load[node], node))
                rset.add(best)
                ft_nodes[v].append(best)
                load[best] += 1

    replica_nodes = [sorted(rset) for rset in replica_sets]

    # Mirror election (Section 4.2): every master machine assigns its
    # vertices' mirrors greedily to the replica-hosting machine with the
    # fewest mirrors assigned by this machine so far; FT replicas are
    # always elected first.
    mirror_nodes: list[list[int]] = [[] for _ in range(n)]
    if k > 0:
        counters: dict[int, np.ndarray] = {}
        for v in range(n):
            master = int(master_of[v])
            counter = counters.get(master)
            if counter is None:
                counter = np.zeros(num_nodes, dtype=np.int64)
                counters[master] = counter
            chosen: list[int] = []
            for node in ft_nodes[v]:
                if len(chosen) >= k:
                    break
                chosen.append(node)
            remaining = [node for node in replica_nodes[v]
                         if node not in chosen]
            while len(chosen) < min(k, len(replica_nodes[v])):
                best = min(remaining, key=lambda node: (counter[node], node))
                remaining.remove(best)
                chosen.append(best)
            for node in chosen:
                counter[node] += 1
            mirror_nodes[v] = chosen

    plan = ReplicationPlan(
        ft_level=k,
        num_nodes=num_nodes,
        master_of=master_of,
        replica_nodes=replica_nodes,
        ft_nodes=ft_nodes,
        mirror_nodes=mirror_nodes,
        selfish=selfish,
    )
    if k > 0:
        plan.validate()
    return plan


def assign_masters_for_vertex_cut(graph: Graph, edge_node: np.ndarray,
                                  num_nodes: int,
                                  seed: int = 0) -> np.ndarray:
    """Pick a master node per vertex from the nodes hosting its edges.

    The hash node is used when it already hosts one of the vertex's
    edges (no extra replica needed); otherwise the hosting node chosen
    deterministically by a stable per-vertex hash.  Isolated vertices
    fall back to their hash node.
    """
    n = graph.num_vertices
    edge_node = np.asarray(edge_node)
    hosts: list[set[int]] = [set() for _ in range(n)]
    src, dst = graph.sources, graph.targets
    for eid in range(graph.num_edges):
        node = int(edge_node[eid])
        hosts[int(src[eid])].add(node)
        hosts[int(dst[eid])].add(node)
    master_of = np.empty(n, dtype=np.int64)
    for v in range(n):
        hashed = hash_to_node(v, num_nodes, salt=seed)
        hosting = hosts[v]
        if not hosting or hashed in hosting:
            master_of[v] = hashed
        else:
            ordered = sorted(hosting,
                             key=lambda node: (hash_to_node(
                                 v * 1_000_003 + node, 1 << 30), node))
            master_of[v] = ordered[0]
    return master_of

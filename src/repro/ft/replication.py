"""Fault-tolerance-oriented replication planning (Section 4).

Given the computation replicas a partitioning already creates, this
module decides, per vertex:

* which extra **FT replicas** to create so every vertex has at least
  ``ft_level`` copies besides the master (Section 4.1) — placed with
  the randomized power-of-choices heuristic the paper describes
  (sample a few candidate nodes, pick the least loaded);
* which ``ft_level`` replica nodes become full-state **mirrors**
  (Section 4.2) — a greedy per-machine election that always selects FT
  replicas first (an FT replica is always a mirror) and otherwise
  balances mirror counts across machines;
* which vertices are **selfish** (no out-edges, Section 4.4) and can
  skip normal-execution synchronisation when the algorithm permits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import FaultToleranceConfig
from repro.engine.messages import csr_ptr
from repro.errors import ConfigError
from repro.graph.graph import Graph
from repro.obs import NULL_TRACER
from repro.partition.base import replica_pairs, unique_pairs
from repro.utils.rng import SeededRng


@dataclass(frozen=True, eq=False)
class NodeRows:
    """One row of nodes per vertex, as CSR: vertex ``v``'s nodes are
    ``nodes[ptr[v]:ptr[v + 1]]``."""

    ptr: np.ndarray
    nodes: np.ndarray

    @classmethod
    def of(cls, owner: np.ndarray, nodes, num_vertices: int) -> NodeRows:
        """Rows from ``(owner, node)`` columns sorted by owner."""
        return cls(csr_ptr(np.bincount(owner, minlength=num_vertices)),
                   np.asarray(nodes, dtype=np.int64))

    def __getitem__(self, v: int) -> np.ndarray:
        return self.nodes[self.ptr[v]:self.ptr[v + 1]]

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.ptr)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(owner, node, lengths)``: one row per listed node, in
        listed order, and the per-vertex lengths."""
        lengths = self.lengths
        return (np.repeat(np.arange(lengths.size), lengths), self.nodes,
                lengths)


@dataclass
class ReplicationPlan:
    """Complete replication layout for one job."""

    ft_level: int
    num_nodes: int
    #: v -> node of its master.
    master_of: np.ndarray
    #: v -> sorted replica nodes (computation + FT, master excluded).
    replica_nodes: NodeRows
    #: v -> the replica nodes that exist only for fault tolerance, in
    #: placement order.
    ft_nodes: NodeRows
    #: v -> mirror nodes in election order; a mirror's index in its row
    #: is its mirror id (the lowest surviving id leads recovery,
    #: Section 5.3.1).
    mirror_nodes: NodeRows
    #: Selfish flag per vertex (zero out-degree).
    selfish: np.ndarray = field(repr=False, default=None)

    # -- census used by Figs. 3 and 8 ---------------------------------

    def total_computation_replicas(self) -> int:
        return self.replica_nodes.nodes.size - self.ft_nodes.nodes.size

    def total_ft_replicas(self) -> int:
        return self.ft_nodes.nodes.size

    def extra_replica_fraction(self) -> float:
        """FT replicas as a fraction of all replicas (Fig. 8a)."""
        total = self.replica_nodes.nodes.size
        if total == 0:
            return 0.0
        return self.total_ft_replicas() / total

    def validate(self) -> None:
        """Check invariants P2/P3 from DESIGN.md; a violation names the
        first offending vertex."""
        k, stride = self.ft_level, self.num_nodes
        rep_gid, rep_node, rep_len = self.replica_nodes.columns()
        rep_key = np.sort(rep_gid * stride + rep_node)

        def outside(rows: NodeRows) -> np.ndarray:
            gid, node, _ = rows.columns()
            return gid[~np.isin(gid * stride + node, rep_key)]

        bad = np.zeros((6, self.master_of.size), dtype=bool)
        bad[0, rep_gid[rep_node == self.master_of[rep_gid]]] = True
        bad[1, rep_key[1:][rep_key[1:] == rep_key[:-1]] // stride] = True
        bad[2, outside(self.ft_nodes)] = True
        bad[3, outside(self.mirror_nodes)] = True
        mirrors = self.mirror_nodes.lengths
        bad[4] = mirrors != np.minimum(k, rep_len)
        bad[5] = rep_len < k
        offenders = np.flatnonzero(bad.any(axis=0))
        if not offenders.size:
            return
        v = int(offenders[0])
        raise ConfigError(f"vertex {v}: " + (
            f"master node {self.master_of[v]} also in replicas",
            "duplicate replica nodes",
            "FT node not in replicas",
            "mirror node not a replica",
            f"expected {k} mirrors, got {mirrors[v]} of {rep_len[v]} "
            "replicas",
            f"only {rep_len[v]} copies for ft_level {k}",
        )[int(np.argmax(bad[:, v]))])


def plan_replication(graph: Graph, partitioning,
                     ft_config: FaultToleranceConfig,
                     seed: int = 0, tracer=NULL_TRACER) -> ReplicationPlan:
    """Produce the full replication layout for a job.

    With ``ft_level == 0`` (BASE / CKPT configurations) no FT replicas
    or mirrors are created and the plan just records the computation
    replicas.  ``tracer`` gets the four steps as child spans of the
    caller's.
    """
    n = graph.num_vertices
    num_nodes = partitioning.num_nodes
    k = ft_config.ft_level
    master_of = np.asarray(partitioning.master_of)
    with tracer.span("load.replicate.replicas", cat="load"):
        computation = NodeRows.of(*replica_pairs(graph, partitioning), n)
    if k and k >= num_nodes:
        raise ConfigError(f"ft_level {k} impossible with {num_nodes} nodes")
    deficient = np.flatnonzero(computation.lengths < k)
    with tracer.span("load.replicate.place", cat="load",
                     deficient=int(deficient.size)):
        ft_gid, ft_node = _place_ft_replicas(computation, deficient,
                                             master_of, num_nodes, k,
                                             ft_config, seed)
        ft_nodes = NodeRows.of(ft_gid, ft_node, n)
        gids, nodes, _ = computation.columns()
        replica_nodes = NodeRows.of(*unique_pairs(
            np.concatenate([gids, ft_gid]),
            np.concatenate([nodes, ft_node]), num_nodes), n)
    contested = int((replica_nodes.lengths > k).sum()) if k else 0
    with tracer.span("load.replicate.elect", cat="load",
                     contested=contested):
        mirror_nodes = _elect_mirrors(replica_nodes, ft_nodes, master_of,
                                      num_nodes, k)
    with tracer.span("load.replicate.validate", cat="load"):
        plan = ReplicationPlan(
            ft_level=k,
            num_nodes=num_nodes,
            master_of=master_of,
            replica_nodes=replica_nodes,
            ft_nodes=ft_nodes,
            mirror_nodes=mirror_nodes,
            selfish=graph.out_degrees() == 0,
        )
        plan.validate()
    return plan


def _place_ft_replicas(computation: NodeRows, deficient: np.ndarray,
                       master_of: np.ndarray, num_nodes: int, k: int,
                       ft_config: FaultToleranceConfig,
                       seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Section 4.1: top every vertex with fewer than ``k`` computation
    replicas up to ``k``, in vertex-id order, each FT replica on the
    least loaded of a few candidates sampled from the nodes not yet
    holding a copy (lowest node on a tie).  Load is total copies
    (masters + replicas) per node.  Returns the ``(vertex, node)``
    columns of the FT replicas in placement order."""
    rng = SeededRng(seed, "ft-placement")
    candidates = max(1, ft_config.placement_candidates)
    load = (np.bincount(master_of, minlength=num_nodes)
            + np.bincount(computation.nodes, minlength=num_nodes)).tolist()
    rows, ptr = computation.nodes.tolist(), computation.ptr.tolist()
    ft_gid, ft_node = [], []
    for v, master in zip(deficient.tolist(), master_of[deficient].tolist()):
        excluded = {master, *rows[ptr[v]:ptr[v + 1]]}
        for _ in range(k + 1 - len(excluded)):
            pool = [node for node in range(num_nodes)
                    if node not in excluded]
            sample = (rng.sample(pool, candidates)
                      if len(pool) > candidates else pool)
            best = min(sample, key=lambda node: (load[node], node))
            excluded.add(best)
            ft_gid.append(v)
            ft_node.append(best)
            load[best] += 1
    return (np.array(ft_gid, dtype=np.int64),
            np.array(ft_node, dtype=np.int64))


def _elect_mirrors(replica_nodes: NodeRows, ft_nodes: NodeRows,
                   master_of: np.ndarray, num_nodes: int,
                   k: int) -> NodeRows:
    """Section 4.2: every master machine assigns its vertices' mirrors
    in vertex-id order, FT replicas first (an FT replica is always a
    mirror), then greedily the replica-hosting machines with the fewest
    mirrors assigned by this machine so far (lowest node on a tie)."""
    if not k:
        return NodeRows.of(np.zeros(0, dtype=np.int64), [], master_of.size)
    counters = [[0] * num_nodes for _ in range(num_nodes)]
    rows, ptr = replica_nodes.nodes.tolist(), replica_nodes.ptr.tolist()
    fts, ft_ptr = ft_nodes.nodes.tolist(), ft_nodes.ptr.tolist()
    elected: list[int] = []
    for master, lo, hi, ft_lo, ft_hi in zip(master_of.tolist(), ptr,
                                            ptr[1:], ft_ptr, ft_ptr[1:]):
        counter = counters[master]
        if ft_lo != ft_hi:
            # An FT row was topped up to k replicas: all mirrors, FT first.
            chosen = fts[ft_lo:ft_hi]
            chosen += sorted([node for node in rows[lo:hi]
                              if node not in chosen],
                             key=counter.__getitem__)
        elif hi - lo > 1:
            # One stable sort by counter (rows list nodes in ascending
            # order, so a tie goes to the lowest node).
            chosen = sorted(rows[lo:hi], key=counter.__getitem__)[:k]
        else:
            chosen = rows[lo:hi]
        for node in chosen:
            counter[node] += 1
        elected += chosen
    lengths = np.minimum(replica_nodes.lengths, k)
    return NodeRows(csr_ptr(lengths), np.array(elected, dtype=np.int64))

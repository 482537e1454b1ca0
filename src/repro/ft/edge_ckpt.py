"""Edge-ckpt files for vertex-cut systems (Section 4.3).

Vertex-cut creates no replicated edges, so Imitator writes each node's
edges to persistent storage once, during graph loading.  The files are
pre-partitioned for Migration: node X's edges are split into one file
per *receiver* node, where an edge's receiver is the node hosting the
master or a mirror of its target vertex — so after X crashes, each
surviving node exclusively reloads one file and every reloaded edge
lands next to a copy of its target.  A file is a list of column chunks
(:data:`Edges`): one written at load, then one appended per logged
batch — algorithms that mutate edge state log updates incrementally,
overlapped with computation (so it costs no normal-execution time in the
paper's model; the bytes are still accounted).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.storage import PersistentStore
from repro.engine.messages import csr_first
from repro.errors import FaultToleranceError
from repro.utils.sizing import BYTES_PER_EDGE

#: ``(src gid, dst gid, weight)``: parallel columns, one row per edge.
Edges = tuple[np.ndarray, np.ndarray, np.ndarray]
#: No edges at all.
NO_EDGES: Edges = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                   np.zeros(0, dtype=np.float64))


def _path(owner_node: int, receiver_node: int) -> str:
    return f"edge-ckpt/node{owner_node}/file{receiver_node}"


def birth_receivers(node: int, lg, num_nodes: int) -> np.ndarray:
    """The receiver of each in-edge of ``node``'s graph ``lg`` as born,
    in image order: the target's master node, else (a master here) its
    first mirror from the birth record, else the next node round-robin."""
    topo = lg.topology()
    rows, _ = lg.slots.birth
    seats = np.diff(rows.mirror_ptr) > 0
    mirror = np.full(topo.n, (node + 1) % num_nodes)
    mirror[rows.positions[seats]] = rows.mirror_nodes[
        rows.mirror_ptr[:-1][seats]]
    return np.where(topo.master_node != node, topo.master_node,
                    mirror)[topo.in_dst]


def receivers_of(engine, targets: np.ndarray, owner: int) -> np.ndarray:
    """The receiver rule once recovery has written structure: per edge
    of ``owner`` into ``targets``, the surviving node that would reload
    it, the owner's metadata read as columns (``SlotArray.metadata``)."""
    receivers = engine.master_node_of[targets]
    # Mastered on the owner: its first mirror elsewhere, else (ft_level
    # 0) the next node round-robin, and the checkpoint path recovers it.
    at = np.flatnonzero(receivers == owner)
    if at.size:
        lg = engine.local_graphs[owner]
        meta = lg.slots.metadata(
            [lg.index_of[t] for t in targets[at].tolist()])
        first = csr_first(meta["mirror_ptr"], meta["mirror_nodes"] != owner)
        # A row with no such mirror reads -1: the appended fallback.
        receivers[at] = np.append(
            meta["mirror_nodes"], (owner + 1) % engine.cluster.num_workers
        )[first]
    return receivers


def concat_edges(chunks) -> Edges:
    """The chunks' rows, in order, as one triple."""
    return tuple(np.concatenate(column) for column in zip(NO_EDGES, *chunks))


def by_receiver(receiver: np.ndarray, edges: Edges) -> dict[int, Edges]:
    """``edges`` grouped by their ``receiver`` column, receivers in
    ascending order, rows in their original order within each."""
    order = np.argsort(receiver, kind="stable")
    keys, starts = np.unique(receiver[order], return_index=True)
    bounds = [*starts.tolist(), order.size]
    columns = [column[order] for column in edges]
    return {key: tuple(column[lo:hi] for column in columns)
            for key, lo, hi in zip(keys.tolist(), bounds, bounds[1:])}


def dedupe(edges: Edges) -> Edges:
    """Collapse update-log duplicates: each ``(src, dst)`` pair once, at
    its first occurrence, with its last weight.

    Mutating algorithms append updated weights behind the loading-time
    rows; recovery must reconstruct each edge once, with its latest
    state, while preserving the original order so gather folds stay
    deterministic.
    """
    src, dst, weight = edges
    if not src.size:
        return edges
    key = src * (int(dst.max()) + 1) + dst
    _, first = np.unique(key, return_index=True)
    _, from_end = np.unique(key[::-1], return_index=True)
    order = np.argsort(first)
    first = first[order]
    return src[first], dst[first], weight[key.size - 1 - from_end[order]]


class EdgeCkptStore:
    """Per-node, per-receiver edge files on the persistent store."""

    def __init__(self, store: PersistentStore):
        self.store = store
        #: bytes written per owner node at loading, for cost accounting.
        self.loading_bytes: dict[int, int] = {}

    # -- loading-time write ---------------------------------------------

    def write_node_edges(self, owner_node: int,
                         edges_by_receiver: dict[int, Edges]) -> int:
        """Write one node's edges, pre-partitioned by receiver.

        Returns the bytes written (the loading-phase cost, which the
        paper hides by overlapping with loading I/O).
        """
        total = 0
        for receiver, edges in sorted(edges_by_receiver.items()):
            nbytes = edges[0].size * BYTES_PER_EDGE
            self.store.write(_path(owner_node, receiver), [edges], nbytes)
            total += nbytes
        self.loading_bytes[owner_node] = total
        return total

    # -- incremental update log -----------------------------------------

    def log(self, owner_node: int, receiver: int, edges: Edges) -> None:
        """Append one chunk of edges (overlapped with computation)."""
        self.store.append(_path(owner_node, receiver), edges,
                          edges[0].size * BYTES_PER_EDGE)

    # -- recovery-time read ------------------------------------------------

    def read_file(self, owner_node: int, receiver: int) -> Edges:
        """One receiver's file of a crashed node's edges (Migration)."""
        path = _path(owner_node, receiver)
        if not self.store.exists(path):
            return NO_EDGES
        return concat_edges(self.store.read(path))

    def receivers(self, owner_node: int) -> list[int]:
        """Receiver ids with an existing file for this owner, sorted.

        Receivers are fixed at write time; after repeated migrations
        some of them may be long dead, so recovery must enumerate the
        files rather than assume one per currently-alive node.
        """
        prefix = f"edge-ckpt/node{owner_node}/file"
        return sorted(int(path[len(prefix):]) for path in
                      self.store.listdir(f"edge-ckpt/node{owner_node}"))

    def read_all(self, owner_node: int) -> tuple[Edges, int]:
        """Every edge of a crashed node (Rebirth reloads them all) and
        the bytes read."""
        paths = list(self.store.listdir(f"edge-ckpt/node{owner_node}"))
        if not paths and self.loading_bytes.get(owner_node, 0) > 0:
            raise FaultToleranceError(
                f"edge-ckpt files for node {owner_node} disappeared")
        return (concat_edges([chunk for path in paths
                              for chunk in self.store.read(path)]),
                sum(self.store.stat(path).nbytes for path in paths))

    def file_nbytes(self, owner_node: int, receiver: int) -> int:
        path = _path(owner_node, receiver)
        if not self.store.exists(path):
            return 0
        return self.store.stat(path).nbytes

    # -- pristine rewrite ------------------------------------------------

    def clear_node(self, owner_node: int) -> None:
        """Drop every file of one owner before a from-scratch rewrite.

        Checkpoint-rung recovery rebuilds all local graphs from the
        loading inputs and rewrites the edge-ckpt files; stale receiver
        files and appended update records from recoveries that happened
        after the snapshot must not survive the rewrite, or a later
        Migration would reload edges twice.
        """
        for path in list(self.store.listdir(f"edge-ckpt/node{owner_node}")):
            self.store.delete(path)
        self.loading_bytes.pop(owner_node, None)

"""A Pregel-style pure message-passing engine (the Hama baseline).

Cyclops (and hence Imitator) replaced Hama's message passing with
vertex replication; this module keeps the *original* Hama/Pregel
execution model so the paper's Section 2.3 comparison can be
reproduced: under message passing, a consistent checkpoint must persist
every in-flight message alongside the vertex values, which is why
Imitator-CKPT — snapshotting only vertex state and re-deriving messages
from replicas — runs "several times faster (up to 6.5x for the Wiki
dataset) than Hama's default checkpoint mechanism".

The engine supports edge-cut partitioning and the same fail-stop model;
recovery restores vertex values *and* the checkpointed message queues,
then resumes.  It intentionally offers only checkpoint-based fault
tolerance — replication-based recovery is precisely what it lacks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.costmodel import (
    CostModel,
    DEFAULT_COST_MODEL,
    compute_time,
    pairwise_comm_time,
    storage_read_time,
    storage_write_time,
)
from repro.errors import EngineError, UnrecoverableFailureError
from repro.graph.graph import Graph
from repro.partition.hash_edge_cut import hash_edge_cut
from repro.utils.sizing import BYTES_PER_VALUE, BYTES_PER_VID


class PregelProgram:
    """Vertex program for the message-passing model.

    Subclasses implement ``compute`` which receives the messages sent
    to the vertex in the previous superstep and returns
    ``(new_value, outgoing_message or None, stays_active)``; outgoing
    messages go to every out-neighbor.
    """

    name = "pregel-program"

    def initial_value(self, vid: int) -> Any:
        raise NotImplementedError

    def is_initially_active(self, vid: int) -> bool:
        return True

    def compute(self, vid: int, value: Any, messages: list[Any],
                iteration: int, out_degree: int
                ) -> tuple[Any, Any, bool]:
        raise NotImplementedError

    def message_nbytes(self, message: Any) -> int:
        return BYTES_PER_VALUE

    def value_nbytes(self, value: Any) -> int:
        return BYTES_PER_VALUE


class MessagePassingPageRank(PregelProgram):
    """PageRank in its classic Pregel formulation."""

    name = "pagerank-mp"

    def __init__(self, damping: float = 0.85):
        self.damping = damping

    def initial_value(self, vid: int) -> float:
        return 1.0

    def compute(self, vid, value, messages, iteration, out_degree):
        if iteration == 0:
            new_value = value
        else:
            new_value = (1 - self.damping) + self.damping * sum(messages)
        outgoing = new_value / out_degree if out_degree else None
        return new_value, outgoing, True


@dataclass
class PregelIterationStats:
    iteration: int
    messages: int
    message_bytes: int
    sim_time_s: float
    checkpoint_s: float = 0.0


@dataclass
class PregelResult:
    values: dict[int, Any]
    num_iterations: int
    iteration_stats: list[PregelIterationStats] = field(
        default_factory=list)
    recovered: int = 0
    total_sim_time_s: float = 0.0


class PregelEngine:
    """Hama-style BSP engine with optional message-inclusive checkpoints.

    The checkpoint (``checkpoint_interval >= 1``) is Hama's default
    scheme: every vertex value *plus every in-flight message* (the
    delivered-but-unprocessed inboxes) is written to the persistent
    store inside the barrier.
    """

    def __init__(self, graph: Graph, program: PregelProgram,
                 num_nodes: int = 50, checkpoint_interval: int = 0,
                 cluster: Cluster | None = None, seed: int = 2014,
                 data_scale: float = 1.0):
        self.graph = graph
        self.program = program
        if cluster is None:
            from dataclasses import replace
            model = (DEFAULT_COST_MODEL if data_scale == 1.0 else
                     replace(DEFAULT_COST_MODEL, data_scale=data_scale))
            cluster = Cluster(ClusterConfig(num_nodes=num_nodes,
                                            num_standby=1, seed=seed),
                              cost_model=model)
        self.cluster = cluster
        self.model: CostModel = cluster.cost_model
        self.checkpoint_interval = checkpoint_interval
        part = hash_edge_cut(graph, cluster.num_workers, seed=seed)
        self.master_of = np.asarray(part.master_of)
        self.out_deg = graph.out_degrees()
        # node -> {vid: value}; node -> {vid: [incoming messages]}
        self.values: dict[int, dict[int, Any]] = defaultdict(dict)
        self.inbox: dict[int, dict[int, list[Any]]] = defaultdict(
            lambda: defaultdict(list))
        self.active: dict[int, set[int]] = defaultdict(set)
        for vid in range(graph.num_vertices):
            node = int(self.master_of[vid])
            self.values[node][vid] = program.initial_value(vid)
            if program.is_initially_active(vid):
                self.active[node].add(vid)
        #: vid -> (destination node, [target vids]) routing, precomputed.
        self._routes: dict[int, dict[int, list[int]]] = defaultdict(dict)
        for eid in range(graph.num_edges):
            src = int(graph.sources[eid])
            dst = int(graph.targets[eid])
            dst_node = int(self.master_of[dst])
            self._routes[src].setdefault(dst_node, []).append(dst)
        self.iteration = 0
        self._last_barrier = 0.0
        self.iteration_stats: list[PregelIterationStats] = []
        self.ckpt_stats_bytes = 0
        self._failures: list[tuple[int, int]] = []
        self._recovered = 0

    # -- failure injection ----------------------------------------------

    def schedule_failure(self, iteration: int, node: int) -> None:
        if node < 0 or node >= self.cluster.num_workers:
            raise EngineError(f"no such node {node}")
        self._failures.append((iteration, node))

    # -- execution ---------------------------------------------------------

    def run(self, max_iterations: int) -> PregelResult:
        while self.iteration < max_iterations:
            for it, node in list(self._failures):
                if it == self.iteration \
                        and self.cluster.node(node).is_alive:
                    self.cluster.crash(node)
                    self._failures.remove((it, node))
            failed = self.cluster.detector.newly_failed()
            if failed:
                self._recover(tuple(sorted(failed)))
                continue
            self._superstep()
            if not any(self.active.values()):
                break
        return PregelResult(
            values=self._all_values(),
            num_iterations=self.iteration,
            iteration_stats=self.iteration_stats,
            recovered=self._recovered,
            total_sim_time_s=self.cluster.clocks.global_max(),
        )

    def _alive(self) -> list[int]:
        return self.cluster.alive_workers()

    def _superstep(self) -> None:
        program = self.program
        alive = self._alive()
        outboxes: dict[tuple[int, int], list[tuple[int, Any]]] = \
            defaultdict(list)
        msg_count = 0
        msg_bytes_by_node: dict[int, dict[int, int]] = defaultdict(
            lambda: defaultdict(int))
        msg_num_by_node: dict[int, dict[int, int]] = defaultdict(
            lambda: defaultdict(int))
        compute_edges: dict[int, int] = defaultdict(int)

        for node in alive:
            for vid in sorted(self.active[node]):
                msgs = self.inbox[node].pop(vid, [])
                value = self.values[node][vid]
                new_value, outgoing, stays = program.compute(
                    vid, value, msgs, self.iteration,
                    int(self.out_deg[vid]))
                self.values[node][vid] = new_value
                compute_edges[node] += len(msgs)
                if not stays:
                    self.active[node].discard(vid)
                if outgoing is None:
                    continue
                nbytes = (program.message_nbytes(outgoing)
                          + BYTES_PER_VID)
                for dst_node, targets in self._routes[vid].items():
                    outboxes[(node, dst_node)].append(
                        (vid, outgoing))
                    for dst in targets:
                        msg_count += 1
                        msg_bytes_by_node[node][dst_node] += nbytes
                        msg_num_by_node[node][dst_node] += 1

        # Deliver (messages to crashed nodes would be dropped; in this
        # engine failures are detected before the superstep).
        for (src_node, dst_node), batch in outboxes.items():
            if not self.cluster.node(dst_node).is_alive:
                continue
            for vid, message in batch:
                for dst in self._routes[vid][dst_node]:
                    self.inbox[dst_node][dst].append(message)
                    self.active[dst_node].add(dst)

        # Simulated time: compute + comm + optional checkpoint + barrier.
        for node in alive:
            cores = self.cluster.node(node).cores
            self.cluster.clocks.advance(
                node, self.model.superstep_overhead_s)
            self.cluster.clocks.advance(node, compute_time(
                self.model, compute_edges[node],
                len(self.active[node]), cores))
            self.cluster.clocks.advance(node, pairwise_comm_time(
                self.model, msg_bytes_by_node, msg_num_by_node, node))
        ckpt_time = 0.0
        if self.checkpoint_interval \
                and (self.iteration + 1) % self.checkpoint_interval == 0:
            ckpt_time = self._checkpoint(alive)
            for node in alive:
                self.cluster.clocks.advance(node, ckpt_time)
        post = self.cluster.clocks.barrier(self.model, alive)
        self.iteration_stats.append(PregelIterationStats(
            iteration=self.iteration,
            messages=msg_count,
            message_bytes=sum(sum(d.values())
                              for d in msg_bytes_by_node.values()),
            sim_time_s=post - self._last_barrier,
            checkpoint_s=ckpt_time))
        self._last_barrier = post
        self.iteration += 1

    # -- Hama-style checkpoint --------------------------------------------

    def _checkpoint(self, alive: list[int]) -> float:
        """Persist vertex values AND in-flight messages (Hama default).

        Returns the barrier time added (max over nodes).
        """
        program = self.program
        slowest = 0.0
        for node in alive:
            values = dict(self.values[node])
            # The consistent snapshot must carry every in-flight
            # message (the delivered-but-unprocessed inboxes) — the
            # cost Imitator-CKPT avoids by re-deriving messages from
            # vertex replicas (Section 2.3).
            pending = [(vid, m) for vid, lst in self.inbox[node].items()
                       for m in lst]
            nbytes = sum(BYTES_PER_VID + program.value_nbytes(v)
                         for v in values.values())
            nbytes += sum(BYTES_PER_VID + program.message_nbytes(m)
                          for _, m in pending)
            payload = {"values": values, "pending": pending,
                       "active": set(self.active[node]),
                       "iteration": self.iteration}
            self.cluster.store.write(
                f"hama-ckpt/node{node}/iter{self.iteration:06d}",
                payload, nbytes)
            records = len(values) + len(pending)
            serialise = (records * self.model.ckpt_per_record_s
                         * self.model.data_scale)
            slowest = max(slowest, serialise + storage_write_time(
                self.model, nbytes, 1, in_memory=False))
            self.ckpt_stats_bytes += nbytes
        return slowest

    # -- recovery ---------------------------------------------------------------

    def _recover(self, failed: tuple[int, ...]) -> None:
        if not self.checkpoint_interval:
            raise UnrecoverableFailureError(
                f"nodes {list(failed)} crashed without checkpointing")
        store = self.cluster.store
        detection = self.cluster.detector.detection_delay_s
        for node in failed:
            self.cluster.replace_node(node)
        alive = self._alive()
        # Find the last completed snapshot iteration.
        last = -1
        for it in range(self.iteration - 1, -1, -1):
            if store.exists(f"hama-ckpt/node0/iter{it:06d}"):
                last = it
                break
        if last < 0:
            # Restart the job from scratch (Section 5.3.2 semantics).
            self._reset_initial()
            self.iteration = 0
        slowest = 0.0
        if last >= 0:
            for node in alive:
                path = f"hama-ckpt/node{node}/iter{last:06d}"
                payload = store.read(path)
                nbytes = store.stat(path).nbytes
                self.values[node] = dict(payload["values"])
                self.active[node] = set(payload["active"])
                self.inbox[node] = defaultdict(list)
                for vid, message in payload["pending"]:
                    self.inbox[node][vid].append(message)
                slowest = max(slowest, storage_read_time(
                    self.model, nbytes, 1, in_memory=False))
            self.iteration = last + 1
        for node in alive:
            self.cluster.clocks.advance(node, detection + slowest)
        self.cluster.clocks.barrier(self.model, alive)
        self._recovered += 1

    def _reset_initial(self) -> None:
        program = self.program
        self.values = defaultdict(dict)
        self.inbox = defaultdict(lambda: defaultdict(list))
        self.active = defaultdict(set)
        for vid in range(self.graph.num_vertices):
            node = int(self.master_of[vid])
            if not self.cluster.node(node).is_alive:
                continue
            self.values[node][vid] = program.initial_value(vid)
            if program.is_initially_active(vid):
                self.active[node].add(vid)

    def _all_values(self) -> dict[int, Any]:
        out: dict[int, Any] = {}
        for node_values in self.values.values():
            out.update(node_values)
        return out

"""The synchronous graph-parallel engine (Algorithm 1 of the paper).

One :class:`Engine` drives a whole job: loading (partitioning,
replication planning, local-graph construction, FT extensions),
iterative computation with per-iteration failure detection at the
global barrier, and recovery through the configured fault-tolerance
mechanism.  It is a superstep driver calling collaborators at named
barrier points: :func:`repro.ft.ladder.recover` on a failure and
``engine.membership`` (:class:`repro.membership.manager.
MembershipManager` — elastic membership and the adaptive FT floor) at
superstep start and after each commit.

Execution modes
---------------
* **edge-cut** (Cyclops): masters gather over their complete local
  in-edge lists and push value syncs to replicas — one message
  direction per iteration;
* **vertex-cut** (PowerLyra GAS): every copy folds a partial gather
  over its local in-edges, partials flow to masters, masters apply and
  scatter new values back, activation signals flow master-ward.

Simulated time: every node advances its own clock by modeled compute
and communication costs; the global barrier max-reduces the clocks
(:mod:`repro.costmodel`).

Scheduling: compute loops iterate each node's *active sets* and the
barrier commit touches only *dirty* slots (those that computed or
received a message), so sparse supersteps cost O(work), not O(graph).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.cluster import Cluster
from repro.cluster.network import Message, MessageKind
from repro.config import FTMode, JobConfig
from repro.costmodel import (
    CostModel,
    compute_time,
    pairwise_comm_time,
)
from repro.engine.construction import ConstructionReport, build_local_graphs
from repro.engine.vectorized import NO_COLUMN, VectorizedExecutor
from repro.engine.vertex_program import ApplyContext, VertexProgram
from repro.errors import EngineError
from repro.exec.protocol import NodeProtocol
from repro.ft import ladder
from repro.ft.checkpoint import CheckpointManager
from repro.ft.edge_ckpt import EdgeCkptStore, EdgeRecord
from repro.ft.recovery import RecoveryStats
from repro.ft.replication import plan_replication
from repro.graph.graph import Graph
from repro.membership.manager import MembershipManager
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.partition.base import make_partitioner


@dataclass
class IterationStats:
    """Per-superstep accounting."""

    iteration: int
    active_masters: int
    messages: int
    bytes: int
    compute_edges: int
    #: Simulated time of this superstep (post-barrier minus pre).
    sim_time_s: float
    #: Simulated time spent checkpointing inside this barrier.
    checkpoint_s: float = 0.0
    #: Wall-clock time at the end of this iteration's barrier.
    sim_clock_s: float = 0.0


@dataclass
class RunResult:
    """Everything a finished (or failed-and-recovered) run reports."""

    algorithm: str
    num_iterations: int
    values: dict[int, Any]
    iteration_stats: list[IterationStats] = field(default_factory=list)
    recoveries: list[RecoveryStats] = field(default_factory=list)
    construction: ConstructionReport | None = None
    total_sim_time_s: float = 0.0
    total_messages: int = 0
    total_bytes: int = 0
    #: Combining-layer surface (DESIGN.md §15): physical gather records
    #: saved by sender-side combining (pre-combine minus on-the-wire)
    #: and the corresponding pre/physical ratio (1.0 when nothing was
    #: combinable — edge-cut, no combiner, or combining off).
    combined_records: int = 0
    combine_ratio: float = 1.0
    halted_early: bool = False
    #: Degraded-mode surface (DESIGN.md §9): the minimum mirror count
    #: across masters at the end of the run, and whether that is below
    #: the configured ft_level (repair could not fully restore K+1).
    ft_level_current: int = 0
    ft_degraded: bool = False
    #: Fallback-ladder usage: rung name -> times it handled a failure
    #: the first-choice mechanism could not.
    fallbacks: dict[str, int] = field(default_factory=dict)
    #: Elastic-membership surface (DESIGN.md §14): joins/drains
    #: completed, masters moved, transfer bytes, flaps, adaptive-floor
    #: event log; empty for static runs (``MembershipManager.report``).
    membership: dict[str, Any] = field(default_factory=dict)

    def avg_iteration_time_s(self) -> float:
        times = [s.sim_time_s - s.checkpoint_s for s in self.iteration_stats]
        return sum(times) / len(times) if times else 0.0


@dataclass(frozen=True)
class _ScheduledFailure:
    iteration: int
    nodes: tuple[int, ...]
    #: "compute" = crash during the superstep (detected at the barrier,
    #: iteration rolled back); "after_commit" = crash right after the
    #: barrier commit (detected leaving the barrier, no rollback).
    phase: str = "compute"


class Engine:
    """Synchronous graph-parallel engine with pluggable fault tolerance."""

    def __init__(self, graph: Graph, program: VertexProgram,
                 job: JobConfig | None = None,
                 cluster: Cluster | None = None,
                 partitioning=None, seed: int | None = None,
                 tracer: Tracer | None = None):
        self.job = job or JobConfig()
        self.job.validate()
        self.graph = graph
        self.program = program
        self.cluster = cluster or Cluster(
            self.job.cluster,
            store_in_memory=self.job.ft.checkpoint_in_memory)
        self.model: CostModel = self.cluster.cost_model
        self.seed = self.job.cluster.seed if seed is None else seed

        # -- observability (DESIGN.md §8) -----------------------------
        self.tracer = tracer or NULL_TRACER
        self.tracer.bind_sim_clock(self.cluster.clocks.global_max)
        self.metrics = MetricsRegistry()
        self.cluster.network.bind_metrics(self.metrics)

        # -- runtime state ------------------------------------------------
        self.iteration = 0
        #: Superstep of the last committed barrier (DESIGN.md §13):
        #: ``-1`` until the first commit (initial values), rewound by
        #: recovery to whatever superstep the restored state reflects.
        #: The read-serving layer tags every response with this.
        self.committed_iteration = -1
        #: True while :func:`repro.ft.ladder.recover` is running — the
        #: explicit degraded window the read router tags responses with.
        self.in_recovery = False
        #: Selfish masters recomputed by the *last* recovery: their
        #: slot holds the value the upcoming retry will commit (one
        #: gather+apply over committed neighbor state), and — because
        #: the selfish optimisation elides their replica syncs — no
        #: surviving copy holds the last-*committed* value.  The read
        #: router fences these gids to a degraded miss until the next
        #: commit barrier closes the window (DESIGN.md §13).
        self.selfish_read_fence: set[int] = set()
        self._failures: list[_ScheduledFailure] = []
        #: Chaos plugins (fault injectors, invariant checkers); each gets
        #: ``on_phase(engine, phase)`` at every hook point.
        self._chaos_plugins: list[Any] = []
        #: Serve hooks (read pumps, read-consistency checkers): called
        #: at every phase hook *before* any chaos-driven column flush,
        #: so point reads exercise the flush-free committed path.
        self._serve_hooks: list[Any] = []
        self.iteration_stats: list[IterationStats] = []
        self.recoveries: list[RecoveryStats] = []
        #: Sync records skipped as non-activating no-ops (DESIGN.md §10).
        self.syncs_elided = 0
        self._halted = False
        self._last_barrier_clock = 0.0
        #: CKPT mode: edge mutations since the last snapshot, per node.
        self._edge_journal: dict[int, list] = defaultdict(list)
        #: The scalar path's per-node round objects of this superstep
        #: (staged slots are committed or rolled back at the barrier);
        #: the array path's live on in the executor's cache instead.
        self._round: dict[int, Any] = {}
        #: Masters whose activity flag must be re-broadcast to replicas
        #: (vertex-cut scheduling).
        self._broadcast_pending: dict[int, set[int]] = defaultdict(set)
        #: Safety-net mode: cumulative position-independent edge-weight
        #: log, (src_gid, dst_gid) -> latest weight.  Survives arbitrary
        #: recoveries between snapshots (unlike the positional CKPT-mode
        #: journal, which assumes masters never move).
        self._safety_edge_log: dict[tuple[int, int], float] = {}
        #: Elastic membership + adaptive FT (DESIGN.md §14): the
        #: schedule, join/drain/flap, the floors and their pumps.
        self.membership = MembershipManager(self)
        #: Leader-elected recovery coordination: the current recovery
        #: leader and its term (bumped per election).
        self.recovery_leader = -1
        self.leader_term = 0

        # -- loading phase (Section 4) --------------------------------
        with self.tracer.span("load", cat="load",
                              algorithm=program.name):
            if partitioning is None:
                partitioner = make_partitioner(self.job.engine.partition)
                with self.tracer.span("load.partition", cat="load"):
                    partitioning = partitioner(graph,
                                               self.cluster.num_workers,
                                               seed=self.seed)
            partitioning.validate(graph)
            self.partitioning = partitioning
            plan_cfg = (self.job.ft
                        if self.job.ft.mode is FTMode.REPLICATION
                        else _zero_ft(self.job.ft))
            with self.tracer.span("load.replicate", cat="load"):
                self.plan = plan_replication(graph, partitioning, plan_cfg,
                                             seed=self.seed)
            with self.tracer.span("load.construct", cat="load"):
                self.local_graphs, self.construction = build_local_graphs(
                    graph, partitioning, self.plan, self.tracer)
            for node_id, lg in self.local_graphs.items():
                self.cluster.node(node_id).local = lg
            self.master_node_of: list[int] = [int(n)
                                              for n in self.plan.master_of]
            self.is_edge_cut = partitioning.kind == "edge-cut"
            #: Transport policy (DESIGN.md §10): no-op sync elision.
            self._sync_elision = self.job.engine.sync_elision
            self._combining = self.job.engine.combining
            #: Vectorized SoA fast path (DESIGN.md §11): engaged when
            #: the config allows it AND the program declares an array
            #: kernel; edge-mutating programs always run scalar.
            kernel = (program.kernel()
                      if (self.job.engine.vectorized
                          and not program.mutates_edges) else None)
            #: Backend-agnostic per-node protocol (DESIGN.md §12) and
            #: ``_state(node)``, the per-node round object binding it
            #: to one partition: the superstep drivers below call only
            #: that object's round interface, and the multiprocessing
            #: backend runs the same objects inside worker processes.
            #: ``selfish_opt`` is refreshed at every superstep from
            #: :attr:`selfish_opt_active`.
            if kernel is not None:
                self._vec = VectorizedExecutor(self, kernel)
                self._protocol = self._vec.proto
                self._state = self._vec.state
            else:
                self._vec = None
                self._protocol = NodeProtocol(
                    program, self.is_edge_cut,
                    sync_elision=self._sync_elision,
                    selfish_opt=False,
                    combining=self._combining)
                self._state = self._scalar_state

            # -- fault-tolerance wiring --------------------------------
            self.ckpt: CheckpointManager | None = None
            self.edge_ckpt: EdgeCkptStore | None = None
            #: REPLICATION composed with low-frequency full snapshots —
            #: the checkpoint rung of the fallback ladder (DESIGN.md §9).
            self._safety_ckpt = (
                self.job.ft.mode is FTMode.REPLICATION
                and self.job.ft.safety_checkpoint_interval > 0)
            with self.tracer.span("load.ft_init", cat="load",
                                  ft_mode=self.job.ft.mode.value):
                if (self.job.ft.mode is FTMode.CHECKPOINT
                        or self._safety_ckpt):
                    self.ckpt = CheckpointManager(
                        self.cluster.store, self.model,
                        interval=(self.job.ft.safety_checkpoint_interval
                                  if self._safety_ckpt
                                  else self.job.ft.checkpoint_interval),
                        in_memory=self.job.ft.checkpoint_in_memory,
                        num_nodes=self.cluster.num_workers,
                        tracer=self.tracer)
                    self.ckpt.write_metadata(self.local_graphs)
                if (self.job.ft.mode is FTMode.REPLICATION
                        and not self.is_edge_cut):
                    self.edge_ckpt = EdgeCkptStore(self.cluster.store,
                                                   self.cluster.num_workers)
                    self._write_edge_ckpt_files()
            self._init_values()
            ladder.update_ft_gauges(self)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def attach_chaos(self, plugin: Any) -> None:
        """Register a chaos plugin (:mod:`repro.chaos`).

        A plugin exposes ``on_phase(engine, phase)`` and is called at
        every engine phase hook: ``after_commit``, ``superstep_start``,
        ``gather``, ``sync``, ``barrier`` (crash-injection points, in
        intra-iteration order), plus ``post_commit``, ``recovery``,
        ``recovery_protocol`` (after a recovery protocol ran but before
        its result is considered final — a crash here restarts recovery
        with the enlarged failure set, Section 5.3.2) and
        ``post_recovery`` (observation / concurrent-failure points).
        Plugins run in attach order.
        """
        self._chaos_plugins.append(plugin)

    def attach_serve(self, hook: Any) -> None:
        """Register a read-serving hook (:mod:`repro.serve`).

        Like a chaos plugin, a serve hook exposes
        ``on_phase(engine, phase)`` and runs at every phase hook — but
        *before* the chaos plugins and before any vectorized-column
        flush, so the hook's point reads go through the flush-free
        committed-value path (DESIGN.md §13).
        """
        self._serve_hooks.append(hook)

    def schedule_failure(self, iteration: int, nodes, phase: str = "compute"
                         ) -> None:
        """Inject fail-stop crashes at a chosen point of the run."""
        if phase not in ("compute", "after_commit"):
            raise EngineError(f"unknown failure phase: {phase}")
        nodes = tuple(int(n) for n in
                      (nodes if hasattr(nodes, "__iter__") else (nodes,)))
        for n in nodes:
            # Elastically joined workers live above num_workers but are
            # legitimate crash targets once they host a local graph.
            if n < 0 or (n >= self.cluster.num_workers
                         and n not in self.local_graphs):
                raise EngineError(f"cannot schedule failure of node {n}")
        self._failures.append(_ScheduledFailure(iteration, nodes, phase))

    def run(self, max_iterations: int | None = None) -> RunResult:
        """Execute the job to completion (Algorithm 1).

        Trace contract: the top-level ``superstep`` and ``recovery``
        spans emitted here tile the simulated timeline — their
        ``dur_sim_s`` sum to :attr:`RunResult.total_sim_time_s`.
        """
        limit = (self.job.engine.max_iterations if max_iterations is None
                 else max_iterations)
        while self.iteration < limit:
            self.membership.superstep_start()
            self._inject("compute")
            with self.tracer.span("superstep", cat="superstep",
                                  iteration=self.iteration) as sp:
                failed = self._run_superstep()
                if failed is None:
                    self._commit_barrier()
                else:
                    sp.annotate(rolled_back=True,
                                failed_nodes=list(failed))
            if failed is not None:
                # Failure detected entering the barrier: roll back and
                # recover, then retry the same iteration.
                with self.tracer.span("recovery", cat="recovery",
                                      iteration=self.iteration,
                                      failed_nodes=list(failed)):
                    self._rollback()
                    ladder.recover(self, failed)
                continue
            self._chaos_point("post_commit")
            self.membership.post_commit()
            self.iteration += 1
            if self._halted and self.job.engine.halt_on_inactive:
                self.tracer.instant("halt", cat="engine",
                                    iteration=self.iteration)
                break
            self._inject("after_commit")
            self._chaos_point("after_commit")
            failed = self._leave_barrier()
            if failed:
                with self.tracer.span("recovery", cat="recovery",
                                      iteration=self.iteration,
                                      failed_nodes=list(failed),
                                      after_commit=True):
                    ladder.recover(self, failed)
        return self._result()

    def values(self) -> dict[int, Any]:
        """Current committed value of every vertex (from its master)."""
        if self._vec is not None:
            self._vec.flush()
        out: dict[int, Any] = {}
        for v in range(self.graph.num_vertices):
            node = self.master_node_of[v]
            out[v] = self.local_graphs[node].slot_of(v).value
        return out

    def value_of(self, gid: int) -> Any:
        """Committed value of one vertex, read from its master.

        A point read (DESIGN.md §13): neither materializes the full
        :meth:`values` dict nor triggers a whole-column vectorized
        writeback — when a committed SoA column is cached the value is
        read straight from it, otherwise from the slot.
        """
        return self.committed_value_at(self.master_node_of[gid], gid)

    def committed_value_at(self, node: int, gid: int) -> Any:
        """Flush-free committed read of one vertex copy on one node.

        Valid for any copy — master, mirror or plain replica; between
        barriers every copy holds the value committed at
        :attr:`committed_iteration` (the replica value-agreement
        invariant), which is exactly what this returns.
        """
        lg = self.local_graphs[node]
        pos = lg.index_of[gid]
        if self._vec is not None:
            value = self._vec.committed_value(node, pos)
            if value is not NO_COLUMN:
                return value
        return lg.slots[pos].value

    def memory_report(self) -> dict[int, int]:
        """Per-node resident bytes of graph state (Tables 3 and 7)."""
        if self._vec is not None:
            self._vec.flush()
        return {node: lg.memory_nbytes(self.program)
                for node, lg in self.local_graphs.items()
                if self.cluster.node(node).is_alive}

    def initial_value_of(self, gid: int) -> Any:
        """Deterministic pre-run value (checkpoint recovery baseline)."""
        return self.program.initial_value(gid, self._ctx())

    # ------------------------------------------------------------------
    # loading helpers
    # ------------------------------------------------------------------

    def _init_values(self) -> None:
        ctx = self._ctx()
        init_cache: dict[int, Any] = {}
        for lg in self.local_graphs.values():
            for slot in lg.iter_slots():
                if slot.gid not in init_cache:
                    init_cache[slot.gid] = self.program.initial_value(
                        slot.gid, ctx)
                slot.value = init_cache[slot.gid]
                lg.set_active(slot,
                              self.program.is_initially_active(slot.gid))
                slot.last_activates = False
                slot.last_update_iter = -1
                if slot.is_master:
                    slot.replicas_known_active = slot.active
                    # Masters mirror their own committed self-activity so
                    # recovery snapshots of mirror state stay truthful.
                    slot.mirror_self_active = slot.active
                if slot.is_mirror:
                    slot.mirror_self_active = slot.active

    def _write_edge_ckpt_files(self) -> None:
        """Persist per-node edge files for vertex-cut FT (Section 4.3).

        An edge's receiver file is keyed by a node hosting the master
        or a mirror of its *target* vertex (excluding the owner), so
        Migration reloads land edges next to a surviving copy.
        """
        assert self.edge_ckpt is not None
        for node, lg in self.local_graphs.items():
            by_receiver: dict[int, list[EdgeRecord]] = defaultdict(list)
            for slot in lg.iter_slots():
                if not slot.in_edges:
                    continue
                receiver = self._edge_receiver(slot.gid, node)
                for src_pos, weight in slot.in_edges:
                    src_slot = lg.slots[src_pos]
                    by_receiver[receiver].append(
                        EdgeRecord(src_slot.gid, slot.gid, weight))
            self.edge_ckpt.write_node_edges(node, dict(by_receiver))

    def _edge_receiver(self, target_gid: int, owner_node: int) -> int:
        """Pick the surviving node that would reload this edge."""
        master = self.master_node_of[target_gid]
        if master != owner_node:
            return master
        master_slot = self.local_graphs[master].slot_of(target_gid)
        for node in master_slot.meta.mirror_nodes:
            if node != owner_node:
                return node
        # No mirror off the owner (ft_level 0): fall back to the next
        # node round-robin; recovery of this edge then needs the
        # checkpoint path anyway.
        return (owner_node + 1) % self.cluster.num_workers

    # ------------------------------------------------------------------
    # superstep phases
    # ------------------------------------------------------------------

    @property
    def selfish_opt_active(self) -> bool:
        """Whether the selfish-vertex optimisation applies (Section 4.4).

        Requires a history-free program (so recovery can recompute the
        dynamic state from neighbors) with immutable edges (so the
        mirrors' edge copies never go stale without sync).
        """
        return (self.job.ft.selfish_optimization
                and self.program.history_free
                and not self.program.mutates_edges)

    def _ctx(self) -> ApplyContext:
        return ApplyContext(iteration=self.iteration,
                            num_vertices=self.graph.num_vertices,
                            num_edges=self.graph.num_edges)

    def _alive(self) -> list[int]:
        return self.cluster.alive_workers()

    def _chaos_point(self, phase: str) -> None:
        """Invoke serve hooks, then every chaos plugin, at a phase hook."""
        # Serve hooks first, before any flush: their reads must take
        # the flush-free committed-column path (DESIGN.md §13).
        for hook in self._serve_hooks:
            hook.on_phase(self, phase)
        if not self._chaos_plugins:
            return
        # Plugins inspect slot state directly; surface any deferred
        # vectorized column commits first.
        if self._vec is not None:
            self._vec.flush()
        for plugin in self._chaos_plugins:
            plugin.on_phase(self, phase)

    def _filter_alive(self, nodes: list[int]) -> list[int]:
        """Drop nodes a chaos plugin crashed since the list was taken."""
        return [n for n in nodes if self.cluster.node(n).is_alive]

    def _run_superstep(self) -> tuple[int, ...] | None:
        """Compute + communicate; returns failed nodes or None."""
        net = self.cluster.network
        net.begin_step()
        alive = self._alive()
        self._round = {}
        self._step_edges: dict[int, int] = defaultdict(int)
        self._step_vertices: dict[int, int] = defaultdict(int)
        #: Traffic totals at superstep start; the barrier commit closes
        #: the window so IterationStats covers the whole superstep,
        #: activation/control traffic of the commit included.
        self._step_start = (net.totals.total_msgs, net.totals.total_bytes)

        self._chaos_point("superstep_start")
        alive = self._filter_alive(alive)
        with self.tracer.span("compute", iteration=self.iteration,
                              mode=("edge-cut" if self.is_edge_cut
                                    else "vertex-cut")) as sp:
            self._compute(alive)
            # Advance per-node clocks: framework overhead + compute.
            for node in alive:
                cores = self.cluster.node(node).cores
                self.cluster.clocks.advance(
                    node, self.model.superstep_overhead_s)
                self.cluster.clocks.advance(node, compute_time(
                    self.model, self._step_edges[node],
                    self._step_vertices[node], cores))
            sp.annotate(edges=sum(self._step_edges.values()),
                        vertices=sum(self._step_vertices.values()))
        # Compute done, all syncs sent but not yet delivered: a crash
        # here models in-flight message loss during the sync exchange.
        self._chaos_point("sync")
        alive = self._filter_alive(alive)

        # Batched communication: the slower direction per node pair.
        with self.tracer.span("sync", iteration=self.iteration) as sp:
            for node in alive:
                self.cluster.clocks.advance(node, pairwise_comm_time(
                    self.model, net.step_bytes, net.step_msgs, node))
            sp.annotate(
                msgs=net.totals.total_msgs - self._step_start[0],
                bytes=net.totals.total_bytes - self._step_start[1])

        # enter_barrier: detect failures (Algorithm 1, line 7).
        with self.tracer.span("detect", iteration=self.iteration) as sp:
            self._chaos_point("barrier")
            failed = tuple(sorted(self.cluster.detector.newly_failed()))
            if failed:
                sp.annotate(failed_nodes=list(failed))
        return failed if failed else None

    def _scalar_state(self, node: int):
        """The scalar path's ``_state``: one round object per node per
        superstep."""
        st = self._round.get(node)
        if st is None:
            st = self._round[node] = self._protocol.new_state(
                self.local_graphs[node])
        return st

    def _compute(self, alive: list[int]) -> None:
        """The compute driver (Algorithm 1, lines 3-6) over the
        per-node round interface — scalar or array, whichever
        ``_state`` hands out."""
        ctx = self._ctx()
        self._protocol.selfish_opt = self.selfish_opt_active
        if self.is_edge_cut:
            # Chaos hook fires mid-loop so a crash lands after a prefix
            # of the nodes computed and sent their syncs (partial-batch
            # loss).
            mid = (len(alive) + 1) // 2 if len(alive) > 1 else 0
            for i, node in enumerate(alive):
                if i == mid:
                    self._chaos_point("gather")
                if not self.cluster.node(node).is_alive:
                    continue
                outbox: dict = {}
                edges, vertices, elided = self._state(node).compute(
                    ctx, outbox)
                self.syncs_elided += elided
                # Flushed per node, so a mid-compute crash still loses
                # the not-yet-computed nodes' syncs (partial-batch
                # semantics).
                self._flush_batches(node, outbox)
                self._step_edges[node] += edges
                self._step_vertices[node] += vertices
            return
        net = self.cluster.network

        # Phase 0: masters whose activity changed since replicas last
        # heard broadcast the flag (cheap; zero for always-active runs).
        for node in alive:
            pending = self._broadcast_pending.get(node)
            if not pending:
                continue
            outbox = self._state(node).broadcast_build(pending)
            pending.clear()
            self._flush_batches(node, outbox)
        for node in alive:
            for msg in net.deliver(node):
                self._state(node).broadcast_apply(msg.payload)

        # Phase 1: local partial gathers flow to masters.
        for node in alive:
            outbox = {}
            self._step_edges[node] += self._state(node).gather(ctx, outbox)
            self._flush_batches(node, outbox)
        # Partial gathers are in flight toward the masters: a crash here
        # loses both the crashed node's partials and its inbox.
        self._chaos_point("gather")
        alive = self._filter_alive(alive)
        for node in alive:
            st = self._state(node)
            for msg in net.deliver(node):
                st.intake(msg.src, msg.payload)

        # Phase 2: masters fold partials (node-id order for
        # determinism), apply, and scatter.
        for node in alive:
            outbox = {}
            vertices, elided = self._state(node).fold_apply(ctx, outbox)
            self.syncs_elided += elided
            self._flush_batches(node, outbox)
            self._step_vertices[node] += vertices

    def _flush_batches(self, node: int, outbox: dict) -> None:
        """Ship a node's accumulated batches, one message per pair."""
        net = self.cluster.network
        for (dst, kind), batch in outbox.items():
            net.send(Message(kind, node, dst, batch, batch.nbytes()))
        outbox.clear()

    # ------------------------------------------------------------------
    # barrier commit
    # ------------------------------------------------------------------

    def _commit_barrier(self) -> None:
        """Commit pending state inside the global barrier (lines 14-15)."""
        alive = self._alive()
        net = self.cluster.network
        with self.tracer.span("barrier", iteration=self.iteration) as sp:
            ckpt_time = self._commit_barrier_inner(alive, net, sp)
        self._finish_iteration_stats(alive, net, ckpt_time)
        # The barrier committed: reads served from here on reflect this
        # superstep (the vectorized columns already hold it, flushed or
        # not — the read path never needs the slot writeback).  Any
        # recovery-recomputed selfish values are now the committed
        # values, so the read fence closes.
        self.committed_iteration = self.iteration
        if self.selfish_read_fence:
            self.selfish_read_fence.clear()

    def _commit_barrier_inner(self, alive: list[int], net, span) -> float:
        # Apply received syncs to replicas/mirrors.
        with self.tracer.span("barrier.apply_syncs",
                              iteration=self.iteration):
            self._apply_received_syncs(alive, net)

        # Commit staged edge mutations (Section 4.3).  Under vertex-cut
        # every update is incrementally logged to the owner's edge-ckpt
        # file, overlapped with execution (bytes counted, no time).
        self._commit_edge_mutations()

        # Commit values and resolve activations.
        with self.tracer.span("barrier.commit", iteration=self.iteration):
            total_active = self._commit_values(alive, net)
        self._halted = total_active == 0
        span.annotate(active_masters=total_active)

        # Checkpoint inside the barrier (Section 2.2); in REPLICATION
        # mode this is the opt-in low-frequency safety net instead.
        ckpt_time = 0.0
        if self.ckpt is not None and self.ckpt.due(self.iteration):
            # Checkpoints read the slots; surface deferred commits.
            if self._vec is not None:
                self._vec.flush()
            if self._safety_ckpt:
                ckpt_time = self.ckpt.safety_checkpoint(
                    self.iteration, self.local_graphs, self.program,
                    alive, self._safety_edge_log)
            else:
                ckpt_time = self.ckpt.checkpoint(self.iteration,
                                                 self.local_graphs,
                                                 self.program, alive,
                                                 self._edge_journal)
                self._edge_journal = defaultdict(list)
            for node in alive:
                self.cluster.clocks.advance(node, ckpt_time)
        return ckpt_time

    def _apply_received_syncs(self, alive: list[int], net) -> None:
        for node in alive:
            for msg in net.deliver(node):
                self._state(node).stage(msg.payload)

    def _commit_edge_mutations(self) -> None:
        # Only the scalar path stages any (its finalize clears them);
        # node order, as the gathers that staged them ran.
        for node in sorted(self._round):
            items = self._round[node].edge_updates
            if items:
                lg = self.local_graphs[node]
                lg.invalidate_soa()  # born at load; its weights go stale
                for slot, updates in items:
                    for idx, weight in updates:
                        src_pos, _old = slot.in_edges[idx]
                        slot.in_edges[idx] = (src_pos, weight)
                        if self.edge_ckpt is not None:
                            receiver = self._edge_receiver(slot.gid, node)
                            self.edge_ckpt.log_edge_update(
                                node, receiver,
                                EdgeRecord(lg.slots[src_pos].gid, slot.gid,
                                           weight))
                        if self.ckpt is not None:
                            if self._safety_ckpt:
                                self._safety_edge_log[
                                    (lg.slots[src_pos].gid, slot.gid)] = \
                                    weight
                            else:
                                self._edge_journal[node].append(
                                    (slot.gid, idx, weight))

    def _commit_values(self, alive: list[int], net) -> int:
        """Commit pending values, resolve activations; returns the
        number of active masters after the superstep."""
        iteration = self.iteration
        # Stage 1: activation scatter along local out-edges.
        outboxes = {node: self._state(node).stage1(iteration)
                    for node in alive}

        # Stage 2 (vertex-cut): remote activation signals travel to
        # the masters.
        if any(outboxes.values()):
            for src_node in sorted(outboxes):
                self._flush_batches(src_node, outboxes[src_node])
            for node in alive:
                st = self._state(node)
                for msg in net.deliver(node):
                    # The activation exchange must only ever see the
                    # ACTIVATE batch just sent above; blindly treating
                    # every inbox message as an activation would flip
                    # ``next_active`` from stray payloads lacking the
                    # semantics (and hide a sequencing bug upstream).
                    if msg.kind is not MessageKind.ACTIVATE:
                        raise EngineError(
                            f"unexpected {msg.kind.value} message from "
                            f"node {msg.src} in the activation exchange "
                            f"of iteration {iteration}")
                    st.activate(msg.payload.gids)

        # Stage 3: commit values, finalise active flags, mirror
        # shadows, broadcast queue.
        total = 0
        for node in alive:
            stale = self._state(node).finalize(iteration)
            if stale:
                self._broadcast_pending[node].update(stale)
            total += len(self.local_graphs[node].active_masters)
        return total

    def _finish_iteration_stats(self, alive: list[int], net,
                                ckpt_time: float) -> None:
        """Close the superstep: barrier clocks, stats, metrics snapshot."""
        post = self.cluster.clocks.barrier(self.model, alive)
        msgs = net.totals.total_msgs - self._step_start[0]
        nbytes = net.totals.total_bytes - self._step_start[1]
        total_active = sum(len(self.local_graphs[n].active_masters)
                           for n in alive)
        self.iteration_stats.append(IterationStats(
            iteration=self.iteration,
            active_masters=total_active,
            messages=msgs, bytes=nbytes,
            compute_edges=sum(self._step_edges.values()),
            sim_time_s=post - self._last_barrier_clock,
            checkpoint_s=ckpt_time,
            sim_clock_s=post))
        self._last_barrier_clock = post
        self.metrics.inc("engine.supersteps")
        self.metrics.set_gauge("engine.syncs_elided", self.syncs_elided)
        self.metrics.set_gauge("engine.active_masters", total_active)
        self.metrics.set_gauge("engine.iteration", self.iteration)
        # Per-node suspicion levels (flap-tolerant detection surface):
        # 0.0 for a healthy node, rising with consecutive missed beats,
        # 1.0 for a confirmed crash.
        detector = self.cluster.detector
        for nid in sorted(self.cluster.coordination.members):
            self.metrics.set_gauge(f"ft.suspicion.node.{nid}",
                                   detector.suspicion_level(nid))
        self.metrics.snapshot(iteration=self.iteration, sim_clock_s=post)

    def _leave_barrier(self) -> tuple[int, ...]:
        """Post-commit failure check (Algorithm 1, line 16)."""
        return tuple(sorted(self.cluster.detector.newly_failed()))

    # ------------------------------------------------------------------
    # failure injection and rollback (recovery itself: repro.ft.ladder)
    # ------------------------------------------------------------------

    def _inject(self, phase: str) -> None:
        for scheduled in self._failures:
            if scheduled.iteration == self.iteration \
                    and scheduled.phase == phase:
                for node in scheduled.nodes:
                    if self.cluster.node(node).is_alive:
                        self.cluster.crash(node)
        self._failures = [f for f in self._failures
                          if not (f.iteration == self.iteration
                                  and f.phase == phase)]

    def _rollback(self) -> None:
        """Discard the failed superstep (Algorithm 1, line 9)."""
        net = self.cluster.network
        for node in self._alive():
            net.deliver(node)  # drain and drop
            if node in self._round:
                self._round[node].abort()
        self._round = {}
        if self._vec is not None:
            self._vec.rollback()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _result(self) -> RunResult:
        totals = self.cluster.network.totals
        net = self.cluster.network
        return RunResult(
            membership=self.membership.report(),
            algorithm=self.program.name,
            num_iterations=self.iteration,
            values=self.values(),
            iteration_stats=self.iteration_stats,
            recoveries=self.recoveries,
            construction=self.construction,
            total_sim_time_s=self.cluster.clocks.global_max(),
            total_messages=totals.total_msgs,
            total_bytes=totals.total_bytes,
            combined_records=net.combine_pre - net.combine_phys,
            combine_ratio=(net.combine_pre / net.combine_phys
                           if net.combine_phys else 1.0),
            halted_early=self._halted,
            ft_level_current=self.metrics.gauge("ft.level_current"),
            ft_degraded=self.metrics.gauge("ft.degraded"),
            fallbacks={
                key[len("recovery.fallback.by_rung."):]: int(value)
                for key, value in self.metrics.counters(
                    "recovery.fallback.by_rung.").items()},
        )


def _zero_ft(ft_config):
    """FT config clone with replication disabled (BASE/CKPT planning)."""
    from dataclasses import replace
    return replace(ft_config, mode=FTMode.NONE, ft_level=0)

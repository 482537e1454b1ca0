"""Multiprocessing execution backend (DESIGN.md §12).

Each cluster node runs as a real ``multiprocessing.Process`` (fork
start method) owning one partition's :class:`LocalGraph`, forked from
a parent-side ``Engine`` — the *parent image* — that itself never runs
a superstep.  A worker is the second driver of the per-node round
interface the simulator drives (DESIGN.md §12): every frame handler is
decode -> one call on its rank's per-node object -> encode.  With a
``vectorized`` spec (the default) and a program that declares an array
kernel that object is an :class:`~repro.engine.vectorized.
ArrayNodeProtocol` state whose columns are built *after* the fork:
batch columns go from the arrays straight into ``encode_batch``,
received batches stage by column scatter, values never flush back to
slots.  Otherwise (``cd``, ``als``, ``vectorized=False``) it is a
:class:`~repro.exec.protocol.ScalarNodeState`.  The coordinator drives
the rounds over per-worker duplex pipes (star topology) and routes the
encoded columnar batches; it cannot tell the two apart.

Determinism / parity
--------------------
Committed values and logical-message counts are identical to the
simulator by construction: both backends run the same per-node
protocol objects over the same forked per-node state, and the
protocols are order-independent across senders (each gid has a single
master, partial gathers fold in sorted sender order, activations are
idempotent), so nondeterministic frame arrival cannot change outcomes.
The coordinator books traffic per routed batch in the simulator's own
units — logical records per batch, payload bytes plus
``BYTES_PER_MSG_HEADER`` per physical batch.

Failure handling
----------------
The chaos schedule (``BackendSpec.failures``) delivers real
``SIGKILL``s.  Death is detected by the coordinator's heartbeat loop —
``multiprocessing.connection.wait`` over worker pipes *and* process
sentinels, with consecutive-miss counting as the hang guard.  Nothing
commits before ``finalize_commit`` on either protocol, so a death
anywhere up to the finalize round leaves every survivor's *committed*
state at the last barrier.  Recovery is not re-implemented here: the
coordinator pulls that committed state (``fullstate``: one list per
field) into the parent image, marks the dead ranks crashed on the
parent's ``Cluster`` and calls :func:`repro.ft.ladder.recover`, as
``Engine.run`` does — election, the Rebirth -> Migration ladder, FT
repair, broadcast refresh, selfish read fence — then re-forks one
worker per live rank from the recovered image and redoes the
interrupted iteration (at most ``max_iteration_retries`` redos each).
Survivors' staged state dies with their processes.  Only a death
inside the finalize round itself is a hard error (some workers may
already have committed).

Elastic membership
------------------
The parent image's ``engine.membership`` holds ``BackendSpec.membership``
(validated by the simulator's own parser) and hands out its events at
the simulator's logical points: a flap at superstep start is a real
``SIGSTOP``/``SIGCONT`` stall, absorbed by the heartbeat loop's
consecutive-miss counting and booked on the parent's failure detector;
joins and drains after their commit barrier take recovery's pull ->
mutate the parent image -> re-fork route, replaying the change through
that same manager (same Fennel plan seed, same placement).
``extra["membership"]`` is the simulator's report plus ``reshapes``;
the parent runs no barrier, so its adaptive floor never pumps.

Scope limits (rejected specs raise :class:`BackendError` before any
fork): fork start method required, no edge-mutating programs, no
``checkpoint`` ``ft_mode``, every refusal of the membership parser,
and no event at or past ``max_iterations``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import defaultdict
from dataclasses import dataclass
from multiprocessing.connection import wait as mpc_wait
from typing import Any

from repro.api import make_engine
from repro.config import MP_HEARTBEAT_INTERVAL_S, MP_HEARTBEAT_MISSES
from repro.engine.vertex_program import ApplyContext
from repro.errors import ConfigError
from repro.exec.base import (BackendError, BackendRunResult, BackendSpec,
                             ExecutionBackend, recoveries_report)
from repro.exec.serialize import (TAG_GATHER, TAG_RAW_GATHER, decode_batch,
                                  encode_batch, encoded_logical_nbytes,
                                  encoded_logical_records,
                                  encoded_precombine_records,
                                  encoded_records)
from repro.ft import ladder
from repro.serve.router import MISS, ReplicaRouter
from repro.serve.server import ReadResponse, ServeStats, WorkloadCursor
from repro.serve.view import CommittedView
from repro.serve.workload import POINT, TOPK, workload_from_config
from repro.utils.sizing import BYTES_PER_MSG_HEADER


class _WorkerDeath(Exception):
    """Internal: one or more workers died (carries the dead ranks)."""

    def __init__(self, ranks: set[int]):
        super().__init__(f"workers died: {sorted(ranks)}")
        self.ranks = set(ranks)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _encode_outbox(outbox: dict) -> list:
    return [(dst, kind.value, encode_batch(batch))
            for (dst, kind), batch in outbox.items()]


class _NodeWorker:
    """One rank's round handlers over the per-node object the parent
    image's own protocol hands out (array exactly when the image
    installed the array executor).  A handler is named after its frame
    tag, takes the frame's fields and returns the reply frame."""

    def __init__(self, rank: int, engine):
        proto = engine._protocol
        proto.selfish_opt = engine.selfish_opt_active
        self.st = proto.new_state(engine.local_graphs[rank])
        self.graph = engine.graph
        # Masters whose activity flag the replicas have not heard yet:
        # empty on a fresh image, re-derived by the engine's recovery
        # otherwise.
        self.pending_broadcast: set[int] = set(
            engine._broadcast_pending.get(rank, ()))

    def ctx(self, iteration: int) -> ApplyContext:
        return ApplyContext(iteration=iteration,
                            num_vertices=self.graph.num_vertices,
                            num_edges=self.graph.num_edges)

    def compute(self, it: int) -> tuple:
        outbox: dict = {}
        counts = self.st.compute(self.ctx(it), outbox)
        return ("computed", it, _encode_outbox(outbox), *counts)

    def vc0(self, it: int) -> tuple:
        outbox = self.st.broadcast_build(self.pending_broadcast)
        self.pending_broadcast = set()
        return ("vc0_done", it, _encode_outbox(outbox))

    def vc1(self, it: int, frames: list) -> tuple:
        for _src, enc in frames:
            self.st.broadcast_apply(decode_batch(enc))
        outbox: dict = {}
        edges = self.st.gather(self.ctx(it), outbox)
        return ("vc1_done", it, _encode_outbox(outbox), edges)

    def vc2(self, it: int, frames: list) -> tuple:
        for src, enc in frames:
            self.st.intake(src, decode_batch(enc))
        outbox: dict = {}
        counts = self.st.fold_apply(self.ctx(it), outbox)
        return ("vc2_done", it, _encode_outbox(outbox), *counts)

    def commit(self, it: int, frames: list) -> tuple:
        for _src, enc in frames:
            self.st.stage(decode_batch(enc))
        return ("staged", it, _encode_outbox(self.st.stage1(it)))

    def commit2(self, it: int, frames: list) -> tuple:
        for _src, enc in frames:
            self.st.activate(decode_batch(enc).gids)
        self.pending_broadcast.update(self.st.finalize(it))
        return ("committed", it, len(self.st.lg.active_masters))

    # Reads of committed state: the coordinator only sends these at
    # protocol-safe points (workers idle between rounds, never inside
    # the commit exchange), so every value is the last committed one.

    def read(self, req_id: int, gids: list) -> tuple:
        return ("read_done", req_id, self.st.read(gids))

    def topk(self, req_id: int, k: int) -> tuple:
        return ("topk_done", req_id, self.st.topk(k))

    def fullstate(self) -> tuple:
        """``_sync_parent_from_workers`` reads it: before a reshape or
        a recovery, and for the job's result.  Whatever an interrupted
        round staged is pending state and dies with this process."""
        return ("fullstate_done", self.st.committed_state())


def _worker_main(rank: int, conn, close_conns, engine) -> None:
    """Worker process main loop: one partition, frame-driven rounds."""
    for other in close_conns:
        try:
            other.close()
        except OSError:
            pass
    # A worker must never outlive an abruptly-gone coordinator; pipes
    # raise EOFError on recv once the parent closes, which exits below.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    worker = _NodeWorker(rank, engine)
    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            return
        tag = frame[0]
        if tag == "shutdown":
            return
        conn.send(getattr(worker, tag)(*frame[1:]))


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


@dataclass
class _Worker:
    proc: Any
    conn: Any


class _TrafficBook:
    """Simulator-unit traffic accounting over routed encoded batches.

    Charges the *logical* (combined-equivalent) tier — the paper's
    message unit, invariant under the combining knob (DESIGN.md §15) —
    and tracks the pre-combine/physical gather record counts feeding
    ``combined_records`` / ``combine_ratio``, mirroring the simulator
    ``Network``'s combine counters.
    """

    def __init__(self) -> None:
        self.total_msgs = 0
        self.total_bytes = 0
        self.total_batches = 0
        self.by_kind: dict[str, int] = defaultdict(int)
        self.combine_pre = 0
        self.combine_phys = 0

    def count(self, kind: str, enc: tuple) -> None:
        records = encoded_logical_records(enc)
        self.total_msgs += records
        self.total_bytes += encoded_logical_nbytes(enc) + BYTES_PER_MSG_HEADER
        self.total_batches += 1
        self.by_kind[kind] += records
        if enc[0] in (TAG_GATHER, TAG_RAW_GATHER):
            self.combine_pre += encoded_precombine_records(enc)
            self.combine_phys += encoded_records(enc)


class _MpReadServer:
    """Coordinator-side query server over worker read frames.

    Routing and accounting reuse the simulator's serve layer —
    :class:`~repro.serve.router.ReplicaRouter` /
    :class:`~repro.serve.server.ServeStats` — over the parent engine:
    its placement is the workers' placement (it only ever changes
    parent-side, in a recovery or a reshape, followed by a re-fork) and
    its cluster marks exactly the ranks whose worker died as crashed.
    Reads execute as batched ``read``/``topk`` frames against the
    workers holding the routed copies, only at protocol-safe points
    (workers idle between rounds), so every answer is a committed slot
    value.  Queries due at one drain point share the drain's round-trip
    latency — they are served concurrently by one frame exchange.
    """

    def __init__(self, backend: "MultiprocessingBackend", engine,
                 workload, cfg: dict):
        self.backend = backend
        self.engine = engine
        self.view = CommittedView(engine)  # static topology reads only
        self.cursor = WorkloadCursor(workload, cfg["expected_supersteps"])
        self.router = ReplicaRouter(
            engine, seed=cfg.get("route_seed", 0),
            policy=cfg.get("policy", "round_robin"))
        self.stats = ServeStats(cfg.get("keep_responses", True))
        self.neighborhood_limit = workload.neighborhood_limit
        self._req = 0

    def drain(self, progress: float, committed: int) -> None:
        """Serve every query whose arrival progress has passed."""
        queries = self.cursor.due(progress)
        if queries:
            self._serve_batch(queries, committed)

    def report(self) -> dict:
        return self.stats.report(self.router, self.engine.metrics)

    # -- execution -------------------------------------------------------

    def _serve_batch(self, queries, committed: int) -> None:
        start = time.perf_counter()
        in_recovery = self.engine.in_recovery
        alive = sorted(self.backend._workers)
        # Route every point/neighborhood gid, bucket by serving rank.
        plans: list = []
        by_rank: dict[int, set] = defaultdict(set)
        topk_ks: set[int] = set()
        for query in queries:
            if query.kind == TOPK:
                topk_ks.add(query.k)
                plans.append(None)
                continue
            gids = ([query.gid] if query.kind == POINT
                    else self.view.out_neighbors(
                        query.gid, limit=self.neighborhood_limit))
            routed: list[tuple[int, int]] = []
            degraded = in_recovery
            for gid in gids:
                node, deg = self.router.route(gid)
                degraded = degraded or deg
                routed.append((gid, node))
                if node == MISS:
                    self.stats.misses += 1
                else:
                    by_rank[node].add(gid)
            plans.append((routed, degraded))
        # One read frame per involved rank, one topk frame per distinct
        # K — the whole drain is two collect round-trips at most.
        values: dict[int, dict] = {}
        if by_rank:
            self._req += 1
            self.backend._send_all(
                sorted(by_rank), "read", self._req,
                per_rank={r: sorted(gids) for r, gids in by_rank.items()})
            frames = self.backend._collect("read_done", self._req,
                                           sorted(by_rank))
            values = {rank: frame[2] for rank, frame in frames.items()}
        topk_merged: dict[int, tuple] = {}
        for k in sorted(topk_ks):
            self._req += 1
            self.backend._send_all(alive, "topk", self._req, k)
            frames = self.backend._collect("topk_done", self._req, alive)
            merged = sorted((pair for frame in frames.values()
                             for pair in frame[2]),
                            key=lambda t: (-t[1], t[0]))
            topk_merged[k] = tuple((int(gid), value)
                                   for gid, value in merged[:k])
        latency_s = time.perf_counter() - start
        # Top-K coverage is partial whenever any rank is out of the
        # aggregation or recovery-recomputed selfish masters are still
        # in the ranking — the explicit-degradation contract.
        cluster = self.engine.cluster
        topk_degraded = (in_recovery
                         or bool(self.engine.selfish_read_fence)
                         or len(cluster.alive_workers())
                         < cluster.expected_workers())
        for query, plan in zip(queries, plans):
            if query.kind == TOPK:
                resp = ReadResponse(
                    gid=-1, kind=TOPK, value=topk_merged[query.k],
                    superstep=committed, degraded=topk_degraded,
                    replica_node=MISS)
            else:
                routed, degraded = plan
                parts = [(gid, None if node == MISS
                          else values[node][gid])
                         for gid, node in routed]
                resp = ReadResponse(
                    gid=query.gid, kind=query.kind,
                    value=(parts[0][1] if query.kind == POINT
                           else tuple(parts)),
                    superstep=committed, degraded=degraded,
                    replica_node=next((node for _gid, node in routed
                                       if node != MISS), MISS))
            self.stats.record(resp, latency_s)


class MultiprocessingBackend(ExecutionBackend):
    """Real-process backend: one forked worker per cluster node."""

    name = "multiprocessing"

    #: Redo budget per iteration for deaths caught before the finalize
    #: round (compute and commit stage 1 are abortable); exceeding it is
    #: a structured :class:`BackendError`, not a silent loop.
    max_iteration_retries = 3

    def __init__(self, heartbeat_s: float = MP_HEARTBEAT_INTERVAL_S,
                 heartbeat_misses: int = MP_HEARTBEAT_MISSES):
        self.heartbeat_s = heartbeat_s
        self.heartbeat_misses = heartbeat_misses
        self._ctx = None
        self._workers: dict[int, _Worker] = {}
        self._engine = None
        self._serve: _MpReadServer | None = None

    # -- lifecycle -------------------------------------------------------

    def _spawn_worker(self, rank: int) -> None:
        parent_end, child_end = self._ctx.Pipe(duplex=True)
        close_conns = [w.conn for w in self._workers.values()]
        close_conns.append(parent_end)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(rank, child_end, close_conns, self._engine),
            name=f"repro-worker-{rank}",
            daemon=True)
        proc.start()
        # The parent's copy of the child end must close so worker death
        # leaves no stray write end holding the pipe open.
        child_end.close()
        self._workers[rank] = _Worker(proc=proc, conn=parent_end)

    def close(self) -> None:
        """Reap every worker — also on failure paths (tests must never
        leak child processes): cooperative shutdown, then terminate,
        then kill."""
        for worker in self._workers.values():
            if worker.proc.is_alive():
                try:
                    worker.conn.send(("shutdown",))
                except (BrokenPipeError, OSError):
                    pass
        for worker in self._workers.values():
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():  # pragma: no cover - last resort
                worker.proc.kill()
                worker.proc.join()
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers.clear()

    def _restart_workers(self) -> None:
        """Reap every worker and fork one per live rank of the parent
        image (job start, membership reshape, recovery)."""
        self.close()
        for rank in self._engine._alive():
            self._spawn_worker(rank)

    # -- frame plumbing --------------------------------------------------

    def _send_all(self, ranks, *head, per_rank: dict | None = None) -> None:
        """Send one frame ``head (+ per_rank[rank])`` to every rank.

        A broken pipe does not stop the fan-out: every surviving rank
        still gets the round's frame before the deaths are raised, so
        whatever survivors apply from it (the phase-0 activity flags)
        is all-or-nothing across them.
        """
        dead = set()
        for rank in ranks:
            frame = head if per_rank is None else head + (per_rank[rank],)
            try:
                self._workers[rank].conn.send(frame)
            except (BrokenPipeError, OSError):
                dead.add(rank)
        if dead:
            raise _WorkerDeath(dead)

    def _collect(self, tag: str, iteration: int | None,
                 ranks) -> dict[int, tuple]:
        """Gather one ``tag`` frame per rank; sentinel-aware.

        The heartbeat loop waits on worker pipes *and* process
        sentinels: a ``SIGKILL`` surfaces as a ready sentinel within one
        heartbeat interval, and ``heartbeat_misses`` consecutive silent
        intervals mean a wedged worker (raised as :class:`BackendError`
        — a hang is not a crash and gets no recovery).  Frames not
        matching ``(tag, iteration)`` are stale pre-abort output and
        are discarded.
        """
        out: dict[int, tuple] = {}
        pending = set(ranks)
        misses = 0
        while pending:
            conns = {self._workers[r].conn: r for r in pending}
            sentinels = {self._workers[r].proc.sentinel: r for r in pending}
            ready = mpc_wait(list(conns) + list(sentinels),
                             timeout=self.heartbeat_s)
            if not ready:
                misses += 1
                if misses >= self.heartbeat_misses:
                    raise BackendError(
                        f"workers {sorted(pending)} sent no frame for "
                        f"{misses * self.heartbeat_s:.1f}s awaiting "
                        f"{tag!r} — wedged")
                continue
            misses = 0
            dead = {sentinels[obj] for obj in ready if obj in sentinels}
            if dead:
                raise _WorkerDeath(dead)
            for obj in ready:
                rank = conns[obj]
                conn = self._workers[rank].conn
                while rank in pending and conn.poll(0):
                    try:
                        frame = conn.recv()
                    except (EOFError, OSError) as exc:
                        raise _WorkerDeath({rank}) from exc
                    if frame[0] == tag and (iteration is None
                                            or frame[1] == iteration):
                        out[rank] = frame
                        pending.discard(rank)
        return out

    def _route(self, collected: dict[int, tuple],
               book: _TrafficBook) -> dict[int, list]:
        """Fan collected outbox batches out to per-destination frame
        lists, booking each batch in simulator units."""
        frames: dict[int, list] = {r: [] for r in self._workers}
        for src in sorted(collected):
            for dst, kind, enc in collected[src][2]:
                book.count(kind, enc)
                frames[dst].append((src, enc))
        return frames

    # -- chaos -----------------------------------------------------------

    def _kill(self, ranks) -> set[int]:
        """Deliver real SIGKILLs and wait until every target is dead, so
        detection is deterministic at the next collect."""
        killed = set()
        for rank in ranks:
            worker = self._workers.get(rank)
            if worker is None or not worker.proc.is_alive():
                continue
            os.kill(worker.proc.pid, signal.SIGKILL)
            killed.add(rank)
        for rank in killed:
            proc = self._workers[rank].proc
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - SIGKILL cannot fail
                raise BackendError(f"worker {rank} survived SIGKILL")
        return killed

    def _flap(self, rank: int) -> None:
        """Stall one worker with SIGSTOP/SIGCONT — a real slow-node
        flap.  The heartbeat loop's consecutive-miss counting absorbs
        the stall (flap tolerance: a slow worker is not a dead one)."""
        worker = self._workers.get(rank)
        if worker is None or not worker.proc.is_alive():
            return
        os.kill(worker.proc.pid, signal.SIGSTOP)
        try:
            time.sleep(min(2 * self.heartbeat_s, 0.5))
        finally:
            os.kill(worker.proc.pid, signal.SIGCONT)
        # Booked where the membership report reads it.
        self._engine.cluster.detector.record_flap(rank)

    # -- elastic membership ----------------------------------------------

    def _sync_parent_from_workers(self) -> None:
        """Pull every live rank's committed slot state into the parent.

        Workers never change the structure of their partition, so the
        parent image already has every slot; only the committed dynamic
        fields flow back.
        """
        alive = sorted(self._workers)
        self._send_all(alive, "fullstate")
        frames = self._collect("fullstate_done", None, alive)
        engine = self._engine
        for rank in alive:
            lg = engine.local_graphs[rank]
            for gid, value, la, lui, msa, active, rka in zip(
                    *frames[rank][1]):
                slot = lg.slot_of(gid)
                slot.value = value
                slot.last_activates = la
                slot.last_update_iter = lui
                slot.mirror_self_active = msa
                slot.replicas_known_active = rka
                lg.set_active(slot, active)
        if engine.is_edge_cut:
            return
        # ``broadcast_build`` marks replicas as knowing a master's
        # activity when it *builds* the phase-0 frame; a death caught
        # before the frames are routed drops them.  With every copy at
        # home the flag is re-derived exactly: the replicas know iff
        # every live copy holds the master's flag.
        for rank in alive:
            for slot in engine.local_graphs[rank].iter_masters():
                known = all(
                    engine.local_graphs[node].slot_of(slot.gid).active
                    == slot.active
                    for node, _mirror in slot.meta.sync_targets()
                    if node in self._workers)
                slot.replicas_known_active = (slot.active if known
                                              else not slot.active)

    def _reshape(self, events: list[tuple[str, Any, int]]) -> None:
        """Stop-the-world join/drain at a commit barrier.

        State flows workers -> parent, the events fire on the parent's
        membership manager exactly as on the simulator (same plan seed,
        same placement), it pumps to completion at this one barrier, and
        every worker re-forks from the reshaped parent.
        """
        self._sync_parent_from_workers()
        membership = self._engine.membership
        membership.fire(events)
        while membership.active:
            membership.pump()
        self._restart_workers()
        self._reshapes += 1

    # -- recovery --------------------------------------------------------

    def _recover(self, dead: set[int], resume_iteration: int,
                 progress: float) -> None:
        """Run the engine's own recovery on the parent image (module
        docstring) and re-fork; ``resume_iteration`` is the superstep
        about to (re)run.  A worker dying while the degraded window is
        served or the state is pulled only enlarges the failed set
        (Section 5.3.2)."""
        engine = self._engine
        # The degraded window opens at detection: survivors still hold
        # the last commit, so reads due by now fall back to surviving
        # replicas, tagged by the router (no live copy = a miss).
        engine.in_recovery = True
        while dead:
            for rank in sorted(dead):
                worker = self._workers.pop(rank)
                worker.proc.join(timeout=1.0)
                worker.conn.close()
                engine.cluster.crash(rank)
            try:
                if self._serve is not None:
                    self._serve.drain(progress,
                                      committed=resume_iteration - 1)
                self._sync_parent_from_workers()
                dead = set()
            except _WorkerDeath as more:
                dead = more.ranks
        engine.iteration = resume_iteration
        ladder.recover(
            engine, tuple(sorted(engine.cluster.detector.newly_failed())))
        self._restart_workers()

    # -- the run loop ----------------------------------------------------

    def _validate(self, spec: BackendSpec, engine) -> None:
        """Refuse what this backend cannot run, before any fork, and
        hand the membership schedule to the parent image's manager (the
        coordinator takes due events from it)."""
        if "fork" not in multiprocessing.get_all_start_methods():
            raise BackendError(
                "multiprocessing backend needs the fork start method")
        if engine.program.mutates_edges:
            raise BackendError(
                "edge-mutating programs are not supported on the "
                "multiprocessing backend")
        if spec.ft_mode not in ("none", "replication"):
            raise BackendError(
                f"ft_mode {spec.ft_mode!r} is not supported on the "
                f"multiprocessing backend")
        # The simulator's rule for a kill target: a rank the image
        # hosts a local graph for (``_kill`` skips a rank without a
        # worker, which is right only for a dead one).
        for iteration, targets, phase in spec.failures:
            if phase not in ("compute", "commit", "after_commit"):
                raise BackendError(
                    f"unsupported failure phase {phase!r}")
            if iteration >= spec.max_iterations:
                raise BackendError(
                    f"failure scheduled at iteration {iteration} beyond "
                    f"max_iterations {spec.max_iterations}")
            for rank in targets:
                if rank not in engine.local_graphs:
                    raise BackendError(
                        f"cannot schedule failure of rank {rank}: the "
                        f"job has no such rank")
        try:
            events = engine.membership.schedule(spec.membership)
        except ConfigError as err:
            raise BackendError(str(err)) from err
        # The schedule's one mp-only rule: ``Engine.run(n)`` may run
        # past the configured limit, a worker pool may not.
        for iteration, *_ in events:
            if iteration >= spec.max_iterations:
                raise BackendError(
                    f"membership event at iteration {iteration} beyond "
                    f"max_iterations {spec.max_iterations}")

    def run(self, graph, spec: BackendSpec) -> BackendRunResult:
        # The parent engine is the state template: partitioned,
        # replicated and value-initialised in __init__, never run.
        # Workers fork from it, so every rank starts bit-identical to
        # the simulator's — SoA topology included, born at load.  It
        # never touches its array executor, so no column is built
        # parent-side: vectorized workers build theirs after the fork.
        # ``_validate`` schedules the membership events instead, so a
        # refusal is a ``BackendError``; the parent runs no barrier.
        engine = make_engine(graph,
                             **{**spec.engine_kwargs(), "membership": ()})
        self._validate(spec, engine)
        if spec.heartbeat_interval_s is not None:
            self.heartbeat_s = spec.heartbeat_interval_s
        if spec.heartbeat_misses is not None:
            self.heartbeat_misses = spec.heartbeat_misses
        self._ctx = multiprocessing.get_context("fork")
        self._engine = engine
        self._reshapes = 0
        serve_cfg = spec.serve_config()
        self._serve = None
        if serve_cfg is not None:
            workload = workload_from_config(graph.num_vertices, serve_cfg)
            self._serve = _MpReadServer(self, engine, workload, serve_cfg)
        kills: dict[tuple[str, int], set[int]] = defaultdict(set)
        for iteration, ranks, phase in spec.failures:
            kills[phase, iteration].update(ranks)

        book = _TrafficBook()
        elided_total = 0
        completed = 0
        halted = False
        retries: dict[int, int] = defaultdict(int)
        start = time.perf_counter()
        try:
            self._restart_workers()
            while completed < spec.max_iterations:
                it = completed
                for _kind, rank, _count in engine.membership.due(
                        it, "superstep_start"):
                    self._flap(rank)
                try:
                    if self._serve is not None:
                        self._serve.drain(it + 0.0, committed=it - 1)
                    active_total, elided = self._iterate(
                        it, book, kills.pop(("compute", it), ()),
                        kills.pop(("commit", it), ()))
                except _WorkerDeath as death:
                    retries[it] += 1
                    if retries[it] > self.max_iteration_retries:
                        raise BackendError(
                            f"iteration {it} aborted {retries[it]} times "
                            f"(workers {sorted(death.ranks)} last); "
                            f"giving up after max_iteration_retries="
                            f"{self.max_iteration_retries}") from death
                    self._recover(death.ranks, it, it + 0.6)
                    continue  # redo the aborted iteration
                elided_total += elided
                completed += 1
                # The commit of ``it`` made any recovery-recomputed
                # selfish values the committed ones: the read fence
                # closes (mirrors Engine._commit_barrier).
                engine.selfish_read_fence.clear()
                reshape_events = engine.membership.due(it, "post_commit")
                if reshape_events:
                    self._reshape(reshape_events)
                if active_total == 0:
                    halted = True
                    break
                # As on the simulator, an ``after_commit`` kill of
                # iteration N lands past the barrier that starts N.
                dead = self._kill(kills.pop(("after_commit", completed), ()))
                if dead:
                    self._recover(dead, completed, float(completed))
            wall_s = time.perf_counter() - start
            if self._serve is not None:
                self._serve.drain(float("inf"), committed=completed - 1)
            self._sync_parent_from_workers()
            values = engine.values()
        finally:
            self.close()
            self._engine = None
        extra = {"workers": len(engine._alive())}
        if engine.recoveries:
            extra["recoveries"] = recoveries_report(engine.recoveries)
        membership = engine.membership.report()
        if membership:
            extra["membership"] = {**membership, "reshapes": self._reshapes}
        if self._serve is not None:
            extra["serve"] = self._serve.report()
            extra["serve_responses"] = self._serve.stats.responses
            self._serve = None
        return BackendRunResult(
            backend=self.name,
            values=values,
            iterations=completed,
            total_msgs=book.total_msgs,
            total_bytes=book.total_bytes,
            total_batches=book.total_batches,
            msgs_by_kind=dict(book.by_kind),
            syncs_elided=elided_total,
            wall_s=wall_s,
            halted=halted,
            failures_recovered=len(engine.recoveries),
            combined_records=book.combine_pre - book.combine_phys,
            combine_ratio=(book.combine_pre / book.combine_phys
                           if book.combine_phys else 1.0),
            extra=extra)

    def _round(self, it: int, alive: list[int], tag: str, done: str,
               per_rank: dict | None = None, kill=()) -> dict[int, tuple]:
        """One frame exchange with every worker: send ``tag``, deliver
        the scheduled SIGKILLs, gather the ``done`` replies."""
        self._send_all(alive, tag, it, per_rank=per_rank)
        if kill and (dead := self._kill(kill)):
            raise _WorkerDeath(dead)
        return self._collect(done, it, alive)

    def _iterate(self, it: int, book: _TrafficBook, kill_now=(),
                 kill_commit=()) -> tuple[int, int]:
        """One full superstep across the workers; returns
        ``(active_masters_after, syncs_elided)``."""
        alive = sorted(self._workers)
        if self._engine.is_edge_cut:
            computed = self._round(it, alive, "compute", "computed",
                                   kill=kill_now)
            sync_frames = self._route(computed, book)
            elided = sum(frame[5] for frame in computed.values())
        else:
            vc0 = self._round(it, alive, "vc0", "vc0_done", kill=kill_now)
            vc1 = self._round(it, alive, "vc1", "vc1_done",
                              self._route(vc0, book))
            vc2 = self._round(it, alive, "vc2", "vc2_done",
                              self._route(vc1, book))
            sync_frames = self._route(vc2, book)
            elided = sum(frame[4] for frame in vc2.values())

        # Reads interleave mid-superstep: compute is done but nothing
        # committed, so workers still hold the last commit — staged
        # results live only in the pending fields / arrays.  (Never
        # drain between the commit rounds below: state flips there.)
        if self._serve is not None:
            self._serve.drain(it + 0.5, committed=it - 1)

        # Commit stage 1 stays abortable: workers only stage pending
        # state until the finalize round, so a death here propagates as
        # ``_WorkerDeath`` — recovery runs on the committed state and
        # the iteration is redone (bounded by ``max_iteration_retries``).
        staged = self._round(it, alive, "commit", "staged", sync_frames,
                             kill=kill_commit)
        act_frames = self._route(staged, book)
        # The finalize round is the point of no return: once any worker
        # processes ``commit2`` its state flips, so a death here leaves a
        # half-committed superstep — a hard error, not a recovery case.
        try:
            committed = self._round(it, alive, "commit2", "committed",
                                    act_frames)
        except _WorkerDeath as death:
            raise BackendError(
                f"workers {sorted(death.ranks)} died inside the finalize "
                f"round of iteration {it}; the multiprocessing backend "
                f"cannot roll back a half-committed superstep"
            ) from death
        return sum(frame[2] for frame in committed.values()), elided

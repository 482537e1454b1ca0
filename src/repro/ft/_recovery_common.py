"""Shared machinery for Rebirth and Migration recovery (Section 5).

Both strategies decompose into the paper's three phases:

* **Reloading** — surviving nodes scan their local masters and mirrors
  to decide what they must recover (fully decentralised: the needed
  location knowledge is in the master metadata every master and mirror
  already holds), then emit batched recovery messages;
* **Reconstruction** — received vertices are written positionally into
  the destination's vertex array and topology is re-linked;
* **Replay** — activation operations stamped with the last committed
  iteration are re-executed, and selfish vertices' dynamic state is
  recomputed from their neighbors.

The helpers here are strategy-agnostic; the strategy modules orchestrate
them and do the strategy-specific accounting.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any

from repro.cluster.network import Message, MessageKind
from repro.engine.local_graph import LocalGraph
from repro.engine.messages import RecoveredVertex
from repro.engine.state import MasterMeta, Role, VertexSlot
from repro.errors import UnrecoverableFailureError
from repro.utils.rng import SeededRng
from repro.utils.sizing import BYTES_PER_VID

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import Engine


def last_committed_iteration(engine: "Engine") -> int:
    """The iteration whose barrier last committed successfully."""
    return engine.iteration - 1


def surviving_recoverer(meta: MasterMeta, failed: set[int]) -> int | None:
    """The node leading recovery of a vertex whose master crashed.

    Mirror ids order the mirrors; the surviving mirror with the lowest
    id does the work so the others stay silent (Section 5.3.1).
    Returns ``None`` when every mirror crashed too.
    """
    for node in meta.mirror_nodes:
        if node not in failed:
            return node
    return None


def snapshot_master_full_state(lg: LocalGraph, slot: VertexSlot,
                               position: int,
                               edge_cut: bool) -> RecoveredVertex:
    """Package a master's full state for recovery (from its mirror)."""
    full_edges = list(slot.full_edges) if (edge_cut and slot.full_edges
                                           is not None) else None
    return RecoveredVertex(
        gid=slot.gid,
        role=Role.MASTER.value,
        position=position,
        value=slot.value,
        active=slot.mirror_self_active,
        last_activates=slot.last_activates,
        out_degree=slot.out_degree,
        in_degree=slot.in_degree,
        master_node=slot.meta.master_node,
        ft_only=False,
        selfish=slot.selfish,
        self_active=slot.mirror_self_active,
        known_active=slot.active,
        last_update_iter=slot.last_update_iter,
        full_edges=full_edges,
        replica_positions=dict(slot.meta.replica_positions),
        mirror_nodes=list(slot.meta.mirror_nodes),
        master_position=slot.meta.master_position,
    )


def snapshot_replica_state(master_lg: LocalGraph, master_slot: VertexSlot,
                           replica_node: int, position: int,
                           edge_cut: bool,
                           from_mirror: bool = False) -> RecoveredVertex:
    """Package a replica/mirror copy for recovery (from its master).

    With ``from_mirror`` the caller is a surviving *mirror* recovering a
    copy on the dead master's behalf; the edge backup must then come
    from the mirror's ``full_edges`` (already expressed in master-node
    positions) — the mirror's local ``in_edges`` use its own node's
    positions and would corrupt the rebuilt copy.
    """
    meta = master_slot.meta
    is_mirror = replica_node in meta.mirror_nodes
    full_edges = None
    if edge_cut and is_mirror:
        if from_mirror:
            full_edges = (list(master_slot.full_edges)
                          if master_slot.full_edges is not None else None)
        else:
            full_edges = [(master_lg.slots[pos].gid, pos, weight)
                          for pos, weight in master_slot.in_edges]
    # On a mirror slot ``replicas_known_active`` is a master-only field;
    # the mirror's own ``active`` flag is the shared broadcast state.
    known = (master_slot.active if from_mirror
             else master_slot.replicas_known_active)
    return RecoveredVertex(
        gid=master_slot.gid,
        role=Role.MIRROR.value if is_mirror else Role.REPLICA.value,
        position=position,
        value=master_slot.value,
        active=known,
        last_activates=master_slot.last_activates,
        out_degree=master_slot.out_degree,
        in_degree=master_slot.in_degree,
        master_node=meta.master_node,
        ft_only=is_mirror and _is_ft_only(master_slot, replica_node),
        selfish=master_slot.selfish,
        mirror_id=(meta.mirror_nodes.index(replica_node)
                   if is_mirror else -1),
        self_active=master_slot.mirror_self_active,
        known_active=known,
        last_update_iter=master_slot.last_update_iter,
        full_edges=full_edges,
        replica_positions=(dict(meta.replica_positions)
                           if is_mirror else None),
        mirror_nodes=list(meta.mirror_nodes) if is_mirror else None,
        master_position=meta.master_position if is_mirror else -1,
    )


def _is_ft_only(master_slot: VertexSlot, replica_node: int) -> bool:
    """An FT-only copy hosts none of the vertex's computation edges.

    Without per-copy bookkeeping at the master we approximate: selfish
    vertices' mirrors are always FT-only; other mirrors are assumed to
    be computation replicas (true under edge-cut construction whenever
    the vertex has out-edges toward that node, which is what made it a
    replica candidate in the first place).
    """
    return master_slot.selfish


def place_recovered_vertex(lg: LocalGraph, rv: RecoveredVertex,
                           last_commit: int) -> VertexSlot:
    """Write one recovered vertex into the array at its position.

    Positional placement is contention-free (Section 5.1.2): exactly
    one recovery message exists per lost position.
    """
    role = Role(rv.role)
    slot = VertexSlot(
        gid=rv.gid,
        role=role,
        value=rv.value,
        active=rv.active,
        last_activates=rv.last_activates,
        last_update_iter=min(rv.last_update_iter, last_commit),
        out_degree=rv.out_degree,
        in_degree=rv.in_degree,
        master_node=rv.master_node,
        ft_only=rv.ft_only,
        selfish=rv.selfish,
        mirror_id=rv.mirror_id,
        full_edges=(list(rv.full_edges)
                    if rv.full_edges is not None else None),
    )
    if role is Role.MASTER:
        slot.replicas_known_active = rv.known_active
        slot.mirror_self_active = rv.self_active
    if role is Role.MIRROR:
        slot.mirror_self_active = rv.self_active
    if rv.replica_positions is not None:
        slot.meta = MasterMeta(
            replica_positions=dict(rv.replica_positions),
            mirror_nodes=list(rv.mirror_nodes or []),
            master_node=rv.master_node,
            master_position=rv.master_position,
        )
    lg.add_slot(slot, position=rv.position)
    return slot


def relink_edge_cut_topology(lg: LocalGraph) -> int:
    """Rebuild in/out edge lists of a freshly reconstructed node.

    Masters' in-edge lists come verbatim from the mirrors' full-state
    edge copies (positions are stable, so the stored source positions
    are directly valid); out-edge lists are derived by scanning them.
    Returns the number of edges linked.
    """
    linked = 0
    lg.invalidate_soa()  # edge lists are rewritten past the last add_slot
    for slot in lg.iter_slots():
        slot.in_edges = []
        slot.out_edges = []
    for slot in lg.iter_slots():
        if slot.role is not Role.MASTER or slot.full_edges is None:
            continue
        position = lg.position_of(slot.gid)
        for src_gid, src_pos, weight in slot.full_edges:
            slot.in_edges.append((src_pos, weight))
            src_slot = lg.slot_at(src_pos)
            if src_slot is None or src_slot.gid != src_gid:
                raise UnrecoverableFailureError(
                    f"position {src_pos} expected vertex {src_gid}")
            src_slot.out_edges.append(position)
            linked += 1
    return linked


def replay_activations(engine: "Engine", nodes: list[int],
                       target_gids: set[int] | None) -> int:
    """Re-execute lost activation operations (Section 5.1.3).

    For every local slot whose last committed update (stamped with the
    last committed iteration) requested activation, re-signal its local
    out-edge targets.  ``target_gids`` restricts the replay to recovered
    or promoted masters (Migration); ``None`` replays toward every local
    master (Rebirth on the new node).  Signals to masters on other
    nodes are forwarded (vertex-cut).  Returns the number of replayed
    operations.
    """
    commit = last_committed_iteration(engine)
    ops = 0
    remote: set[tuple[int, int, int]] = set()
    for node in nodes:
        lg = engine.local_graphs[node]
        for slot in lg.iter_slots():
            if not slot.last_activates or slot.last_update_iter != commit:
                continue
            for dst_pos in slot.out_edges:
                target = lg.slots[dst_pos]
                if target is None:
                    continue
                if target_gids is not None and target.gid not in target_gids:
                    continue
                ops += 1
                if target.is_master:
                    if not target.active:  # a flip is a slot write
                        lg.invalidate_soa()
                    lg.set_active(target, True)
                else:
                    remote.add((node, target.master_node, target.gid))
    net = engine.cluster.network
    for src, dst, gid in sorted(remote):
        if not engine.cluster.node(dst).is_alive:
            continue
        net.send(Message(MessageKind.RECOVERY, src, dst,
                         ("replay-activate", gid), BYTES_PER_VID))
    for node in engine._alive():
        lg = engine.local_graphs[node]
        for msg in net.deliver(node):
            kind, gid = msg.payload
            if kind == "replay-activate" and gid in lg.index_of:
                slot = lg.slot_of(gid)
                if slot.is_master:
                    if not slot.active:
                        lg.invalidate_soa()
                    lg.set_active(slot, True)
    return ops


def recompute_selfish_masters(engine: "Engine", gids: list[int]) -> int:
    """Recompute selfish vertices' dynamic state from neighbors.

    Selfish vertices skipped normal sync (Section 4.4), so their
    recovered value is stale; being history-free (the optimisation's
    precondition), one gather+apply over the last committed neighbor
    values restores it.  Under vertex-cut the gather spans nodes, so
    partials are folded in node-id order like the engine does.
    Returns the number of gather operations (edges) performed.

    The recomputed value is the one the *retried* superstep will
    commit, not the last-committed one — and because selfish syncs are
    elided, no surviving copy holds the committed value either.  The
    gids therefore enter ``engine.selfish_read_fence`` so the read
    router serves them as degraded misses until the next commit
    barrier (DESIGN.md §13).
    """
    program = engine.program
    ctx = engine._ctx()
    edges = 0
    engine.selfish_read_fence.update(gids)
    if engine.is_edge_cut:
        for gid in gids:
            node = engine.master_node_of[gid]
            lg = engine.local_graphs[node]
            slot = lg.slot_of(gid)
            acc = program.gather_init()
            for src_pos, weight in slot.in_edges:
                acc = program.gather(acc, lg.view(src_pos), weight, gid)
                edges += 1
            slot.value = program.apply(gid, slot.value, acc, ctx)
            lg.set_active(slot, program.stays_active(
                gid, slot.value, slot.value, ctx))
            lg.invalidate_soa()
    else:
        want = set(gids)
        partials: dict[int, list[tuple[int, Any]]] = defaultdict(list)
        for node in engine._alive():
            lg = engine.local_graphs[node]
            for gid in want:
                if gid not in lg.index_of:
                    continue
                slot = lg.slot_of(gid)
                if not slot.in_edges:
                    continue
                acc = program.gather_init()
                for src_pos, weight in slot.in_edges:
                    acc = program.gather(acc, lg.view(src_pos), weight, gid)
                    edges += 1
                partials[gid].append((node, acc))
        for gid in gids:
            node = engine.master_node_of[gid]
            master_lg = engine.local_graphs[node]
            slot = master_lg.slot_of(gid)
            acc = program.gather_init()
            for _, part in sorted(partials.get(gid, ()),
                                  key=lambda item: item[0]):
                acc = program.gather_sum(acc, part)
            slot.value = program.apply(gid, slot.value, acc, ctx)
            master_lg.set_active(slot, program.stays_active(
                gid, slot.value, slot.value, ctx))
            master_lg.invalidate_soa()
    return edges


def find_lost_vertices(engine: "Engine", failed: set[int],
                       covered: set[int] | None = None) -> list[int]:
    """Gids of dead masters no surviving mirror can recover.

    A cheap survivor-side scan (no mutation), run *before* any rung of
    the fallback ladder mutates cluster state: only mirrors hold the
    master's full state (plain FT replicas carry neither metadata nor
    edge backups), so a master is in-memory recoverable iff one of its
    mirrors survives to lead its recovery (:func:`surviving_recoverer`,
    the test Rebirth's and Migration's reload scans apply — a rung
    passes what its scan found as ``covered``).  Anything else needs
    the checkpoint rung — or is genuinely unrecoverable.
    """
    if covered is None:
        covered = set()
        for node in engine._alive():
            if node in failed:
                continue
            for slot in engine.local_graphs[node].iter_mirrors():
                if (slot.master_node in failed and
                        surviving_recoverer(slot.meta, failed) == node):
                    covered.add(slot.gid)
    return [gid for gid, node in enumerate(engine.master_node_of)
            if node in failed and gid not in covered]


def check_recoverable(engine: "Engine", failed: set[int], rung: str,
                      covered: set[int]) -> None:
    """Raise unless ``covered`` — the dead masters a rung's reload scan
    found a leading mirror for — is all of them: the in-memory rungs'
    own guard, so one called directly reports what the ladder would."""
    lost = find_lost_vertices(engine, failed, covered)
    if lost:
        raise UnrecoverableFailureError(
            f"{len(lost)} vertices lost every copy "
            f"(e.g. vertex {lost[0]}); ft_level "
            f"{engine.job.ft.ft_level} cannot cover nodes "
            f"{sorted(failed)}", lost_vertices=len(lost),
            rungs_attempted=(rung,),
            surviving_nodes=tuple(
                n for n in engine._alive() if n not in failed))


def create_replica(engine: "Engine", gid: int,
                   node: int) -> tuple[int, int]:
    """Create a plain replica of ``gid`` on ``node`` from its master.

    Used when migrated edges, or a moved master's in-edges, land on a
    node with no local copy of an endpoint ("some new replicas are
    necessary to retain local access semantics", Section 5.2.1): state
    fetched from the master, registered in the master's (and every
    mirror's) metadata, counted as recovery traffic.  Returns
    ``(position, bytes)``.
    """
    master_node = engine.master_node_of[gid]
    master_lg = engine.local_graphs[master_node]
    master_slot = master_lg.slot_of(gid)
    lg = engine.local_graphs[node]
    position = len(lg.slots)
    # ``node`` holds no copy, so it is not among the mirrors and the
    # master's snapshot for it is already a plain replica's.
    rv = snapshot_replica_state(master_lg, master_slot, node,
                                position, edge_cut=False)
    place_recovered_vertex(lg, rv, last_committed_iteration(engine))
    master_slot.meta.replica_positions[node] = position
    master_slot.meta.invalidate_replica_cache()
    master_lg.invalidate_soa()  # its sync plan grew; add_slot covered ``node``
    nbytes = rv.nbytes(engine.program.value_nbytes(rv.value))
    engine.cluster.network.send(
        Message(MessageKind.RECOVERY, master_node, node,
                ("replica-state", gid), nbytes))
    # Keep mirrors' metadata copies fresh.
    for mirror_node in master_slot.meta.mirror_nodes:
        mirror = engine.local_graphs[mirror_node].slot_of(gid)
        if mirror.meta is not None:
            mirror.meta.replica_positions[node] = position
            mirror.meta.invalidate_replica_cache()
    return position, nbytes


def masters_below(engine: "Engine", alive: list[int],
                  k: int) -> tuple[list[int], int]:
    """Scan the live nodes' masters for FT levels below ``k``.

    Returns the sorted gids in deficit and the largest per-node master
    count (the nodes scan in parallel, so that bounds the scan's cost).
    """
    deficit: list[int] = []
    widest = 0
    for node in alive:
        masters, by_level = engine.local_graphs[node].ft_census()
        widest = max(widest, masters)
        for level, gids in by_level.items():
            if level < k:
                deficit.extend(gids)
    return sorted(deficit), widest


def min_ft_level(engine: "Engine", cap: int) -> int:
    """The lowest FT level any live master has, capped at ``cap``."""
    return min([cap, *(level for node in engine._alive()
                       for level in engine.local_graphs[node].ft_census()[1])])


def repair_transfer_s(engine: "Engine", created: int,
                      num_alive: int) -> float:
    """Simulated cost of a repair round that created ``created`` copies:
    replica state transfer spread over the live nodes, plus one
    coordination round."""
    model = engine.model
    return (created * model.per_vertex_reconstruct_s * model.data_scale
            / max(1, num_alive) + model.recovery_round_s)


def restore_ft_level(engine: "Engine", gids: list[int],
                     seed_label: str, k: int | None = None
                     ) -> tuple[int, int]:
    """Re-create FT replicas and mirrors for the given master vertices.

    After recovery some vertices have fewer than ``ft_level`` mirrors
    (crashed copies, promoted mirrors).  New FT replicas are placed with
    the same randomized least-loaded heuristic as loading (Section 4.1)
    and new mirrors elected; new mirrors receive the master's full
    state.  ``k`` overrides the target replication level (the adaptive
    floor, DESIGN.md §14); the default is the engine's current effective
    floor.  Returns ``(replicas_created, mirror_bytes_sent)``.
    """
    if k is None:
        k = engine.membership.effective_floor
    if k <= 0:
        return (0, 0)
    rng = SeededRng(engine.seed, seed_label, engine.iteration)
    alive = [n for n in engine._alive()
             if (n < engine.cluster.num_workers
                 or n in engine.local_graphs)
             and engine.cluster.placement_eligible(n)]
    created = 0
    bytes_sent = 0
    program = engine.program
    for gid in gids:
        master_node = engine.master_node_of[gid]
        master_lg = engine.local_graphs[master_node]
        master_slot = master_lg.slot_of(gid)
        meta = master_slot.meta
        # Ensure at least k replicas exist.
        while len(meta.replica_positions) < k:
            excluded = set(meta.replica_positions) | {master_node}
            pool = [n for n in alive if n not in excluded]
            if not pool:
                break
            # Adopt untracked surviving copies first: a copy can
            # outlive its metadata entry (a reborn node restores its
            # slots, but the master's replica_positions was pruned at
            # crash time).  Re-registering it — with state refreshed
            # from the master — is a free replica, and placing a *new*
            # copy on that node would collide with the old slot.
            orphans = [n for n in pool
                       if gid in engine.local_graphs[n].index_of]
            if orphans:
                node = orphans[0]
                orphan = engine.local_graphs[node].slot_of(gid)
                orphan.value = master_slot.value
                orphan.last_activates = master_slot.last_activates
                orphan.last_update_iter = master_slot.last_update_iter
                orphan.master_node = master_node
                engine.local_graphs[node].invalidate_soa()
                meta.replica_positions[node] = \
                    engine.local_graphs[node].position_of(gid)
                created += 1
                bytes_sent += program.value_nbytes(master_slot.value) \
                    + BYTES_PER_VID
                continue
            candidates = engine.job.ft.placement_candidates
            sample = (rng.sample(pool, candidates)
                      if len(pool) > candidates else pool)
            best = min(sample,
                       key=lambda n: (len(engine.local_graphs[n].slots), n))
            rv = snapshot_replica_state(master_lg, master_slot, best,
                                        position=len(
                                            engine.local_graphs[best].slots),
                                        edge_cut=engine.is_edge_cut)
            rv.ft_only = True
            slot = place_recovered_vertex(
                engine.local_graphs[best], rv,
                last_committed_iteration(engine))
            slot.role = Role.REPLICA  # elected below if chosen as mirror
            slot.mirror_id = -1
            meta.replica_positions[best] = rv.position
            created += 1
            bytes_sent += rv.nbytes(program.value_nbytes(rv.value))
        # Elect mirrors up to k, keeping surviving ones.
        meta.mirror_nodes = [n for n in meta.mirror_nodes
                             if n in meta.replica_positions]
        pool = [n for n in meta.replica_positions
                if n not in meta.mirror_nodes]
        pool.sort(key=lambda n: (len(engine.local_graphs[n].slots), n))
        while len(meta.mirror_nodes) < min(k, len(meta.replica_positions)):
            node = pool.pop(0)
            meta.mirror_nodes.append(node)
            mirror_slot = engine.local_graphs[node].slot_of(gid)
            mirror_slot.mirror_self_active = master_slot.mirror_self_active
            if engine.is_edge_cut:
                mirror_slot.full_edges = [
                    (master_lg.slots[pos].gid, pos, weight)
                    for pos, weight in master_slot.in_edges]
                bytes_sent += len(mirror_slot.full_edges) * 24
            bytes_sent += 64
        meta.invalidate_replica_cache()
        master_lg.invalidate_soa()  # its sync plan and FT level changed
        # Every mirror, new or surviving, gets its seat and the final
        # metadata copy (survivors hold stale ones after the changes).
        for node in meta.mirror_nodes:
            engine.local_graphs[node].invalidate_soa()
            mslot = engine.local_graphs[node].slot_of(gid)
            mslot.role = Role.MIRROR
            mslot.mirror_id = meta.mirror_nodes.index(node)
            mslot.meta = MasterMeta(
                replica_positions=dict(meta.replica_positions),
                mirror_nodes=list(meta.mirror_nodes),
                master_node=meta.master_node,
                master_position=meta.master_position,
            )
    return created, bytes_sent

"""Structure-of-arrays topology image of one node's local graph.

The per-vertex :class:`~repro.engine.state.VertexSlot` array stays the
authoritative store (recovery, checkpoints and membership moves read
and write it), but the vectorized compute path and recovery's selection need the
*static* shape of a node's graph as flat numpy arrays: role masks,
degrees, the local in-/out-edge lists in CSR-style per-edge arrays, the
master->replica sync fan-out grouped by destination and, beside it,
each planned copy's position on its own node.  :class:`NodeTopology` is
that image, with two constructors the SoA-coherence chaos invariant
holds equal: the loader — and Rebirth, for a reborn node — cuts it from
the columns it stamps the slots from (:meth:`~NodeTopology.from_columns`),
so a :class:`~repro.engine.local_graph.LocalGraph` is born with it; once
something writes that node outside the barrier commit — ``add_slot``/
``remove_slot``, or the ``invalidate_soa`` every such writer (a recovery
rung, FT repair, a membership move) issues for exactly the nodes it
wrote on — :meth:`~NodeTopology.build` reads it back out of the slots.

Dynamic state (values, activity flags) deliberately does NOT live
here — the executor caches those columns separately, dual-writes them
at every barrier commit, and rebuilds them whenever this topology
object is replaced, so recovery, checkpointing and chaos plugins keep
seeing exact state at every barrier.
"""

from __future__ import annotations

import numpy as np

from repro.engine.state import Role


class NodeTopology:
    """Immutable array view of one node's local graph topology."""

    __slots__ = (
        "n", "gids", "occupied", "is_master", "is_mirror", "selfish",
        "master_node", "out_deg_f", "in_counts", "has_in",
        "in_src", "in_w", "in_dst", "out_src", "out_dst",
        "gid_sorted", "pos_sorted", "sync_plan", "sync_peer",
    )

    @classmethod
    def build(cls, lg) -> "NodeTopology":
        """Read the image back out of ``lg``'s slots (after a write)."""
        slots = lg.slots
        n = len(slots)
        gids = np.full(n, -1, dtype=np.int64)
        occupied = np.zeros(n, dtype=bool)
        is_master = np.zeros(n, dtype=bool)
        is_mirror = np.zeros(n, dtype=bool)
        selfish = np.zeros(n, dtype=bool)
        master_node = np.full(n, -1, dtype=np.int64)
        out_deg = np.zeros(n, dtype=np.float64)
        in_src: list[int] = []
        in_w: list[float] = []
        in_dst: list[int] = []
        out_src: list[int] = []
        out_dst: list[int] = []
        sync_plan: dict[tuple[int, bool], list[int]] = {}
        peers: dict[tuple[int, bool], list[int]] = {}
        node_id = lg.node_id
        for pos, slot in enumerate(slots):
            if slot is None:
                continue
            occupied[pos] = True
            gids[pos] = slot.gid
            out_deg[pos] = slot.out_degree
            selfish[pos] = slot.selfish
            if slot.role is Role.MASTER:
                is_master[pos] = True
                master_node[pos] = node_id
                where = slot.meta.replica_positions
                for key in slot.meta.sync_targets():
                    sync_plan.setdefault(key, []).append(pos)
                    peers.setdefault(key, []).append(where[key[0]])
            else:
                if slot.role is Role.MIRROR:
                    is_mirror[pos] = True
                master_node[pos] = slot.master_node
            edges = slot.in_edges
            if edges:
                srcs, ws = zip(*edges)
                in_src.extend(srcs)
                in_w.extend(ws)
                in_dst.extend([pos] * len(edges))
            # Tombstoned targets are dropped here, mirroring the
            # ``target is None: continue`` guard of the scalar commit.
            outs = [d for d in slot.out_edges if slots[d] is not None]
            if outs:
                out_src.extend([pos] * len(outs))
                out_dst.extend(outs)
        return cls.from_columns(
            gids, occupied, is_master, is_mirror, selfish, master_node,
            out_deg, in_src, in_w, in_dst, out_src, out_dst, sync_plan,
            [p for key in sync_plan for p in peers[key]])

    @classmethod
    def from_columns(cls, gids, occupied, is_master, is_mirror, selfish,
                     master_node, out_deg, in_src, in_w, in_dst, out_src,
                     out_dst, sync_plan, sync_peer) -> "NodeTopology":
        """Adopt per-position columns, per-edge columns in (position,
        edge) order, a ``sync_plan`` in send order and ``sync_peer`` —
        each planned copy's position on its own node, flattened in
        ``sync_plan`` order — and derive the rest.  The loader cuts them
        from its global columns (``engine/construction.py``), Rebirth
        from the columns its reborn node received
        (``ft/_recovery_common.py``), and :meth:`build` reads them off
        the slots."""
        topo = cls()
        topo.n = len(gids)
        topo.gids = gids
        topo.occupied = occupied
        topo.is_master = is_master
        topo.is_mirror = is_mirror
        topo.selfish = selfish
        topo.master_node = master_node
        topo.out_deg_f = out_deg
        topo.in_src = np.asarray(in_src, dtype=np.int64)
        topo.in_w = np.asarray(in_w, dtype=np.float64)
        topo.in_dst = np.asarray(in_dst, dtype=np.int64)
        topo.out_src = np.asarray(out_src, dtype=np.int64)
        topo.out_dst = np.asarray(out_dst, dtype=np.int64)
        topo.in_counts = np.bincount(topo.in_dst, minlength=topo.n)
        topo.has_in = topo.in_counts > 0
        occ = np.flatnonzero(occupied)
        order = np.argsort(gids[occ], kind="stable")
        topo.pos_sorted = occ[order]
        topo.gid_sorted = gids[topo.pos_sorted]
        topo.sync_plan = {key: np.asarray(positions, dtype=np.int64)
                          for key, positions in sync_plan.items()}
        topo.sync_peer = np.asarray(sync_peer, dtype=np.int64)
        return topo

    def copies_on(self, node: int) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray]:
        """The masters here with a copy on ``node``: their positions,
        the copy's position there and whether it is a mirror."""
        none = np.zeros(0, dtype=np.int64)
        parts, at = [(none, none, none.astype(bool))], 0
        for (dst, mirror), positions in self.sync_plan.items():
            if dst == node:
                parts.append((positions,
                              self.sync_peer[at:at + positions.size],
                              np.full(positions.size, mirror)))
            at += positions.size
        return tuple(np.concatenate(col) for col in zip(*parts))

    def translate(self, gid_array: np.ndarray) -> np.ndarray:
        """Map an array of gids to local positions (all must be local)."""
        return self.pos_sorted[np.searchsorted(self.gid_sorted, gid_array)]
